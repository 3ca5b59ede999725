//! SQL front end for the DBSpinner reproduction.
//!
//! The grammar is the analytical core of SQL (SELECT with joins, GROUP
//! BY/HAVING, set operations, ORDER BY/LIMIT, subqueries, CTEs) plus:
//!
//! * `WITH RECURSIVE` — ANSI recursive CTEs (fixed-point union semantics);
//! * `WITH ITERATIVE name AS ( R0 ITERATE Ri UNTIL Tc ) Qf` — the
//!   iterative-CTE extension of SQLoop \[16\] that DBSpinner integrates
//!   natively, with metadata / data / delta termination conditions;
//! * the DDL/DML subset (CREATE/DROP TABLE, INSERT, UPDATE ... FROM,
//!   DELETE) that the middleware and stored-procedure baselines need.
//!
//! Entry points: [`parse_sql`] (one statement) and [`parse_statements`]
//! (a `;`-separated script).

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::*;
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::{parse_sql, parse_statements, Parser};
