//! Recursive-descent SQL parser.
//!
//! Precedence-climbing expression parser plus straightforward clause
//! parsing. The `WITH ITERATIVE` grammar follows the paper:
//!
//! ```sql
//! WITH ITERATIVE name [(col, ...)] AS (
//!     <non-iterative query R0>
//!     ITERATE <iterative query Ri>
//!     UNTIL <termination>
//! ) <final query Qf>
//! ```
//!
//! Termination forms: `N ITERATIONS`, `N UPDATES`, `DELTA < N`,
//! `[ANY] (expr) [, N ROWS]`.

use spinner_common::{DataType, Error, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};

/// Words that cannot be implicit aliases or bare identifiers mid-clause.
const RESERVED: &[&str] = &[
    "select",
    "from",
    "where",
    "group",
    "having",
    "order",
    "limit",
    "union",
    "except",
    "intersect",
    "join",
    "inner",
    "left",
    "right",
    "full",
    "cross",
    "outer",
    "on",
    "as",
    "and",
    "or",
    "not",
    "case",
    "when",
    "then",
    "else",
    "end",
    "with",
    "recursive",
    "iterative",
    "iterate",
    "until",
    "insert",
    "update",
    "delete",
    "create",
    "drop",
    "table",
    "values",
    "set",
    "into",
    "distinct",
    "is",
    "null",
    "in",
    "between",
    "by",
    "asc",
    "desc",
    "nulls",
    "first",
    "last",
    "explain",
    "primary",
    "key",
    "partition",
    "all",
    "cast",
    "exists",
    "if",
    "using",
];

/// Parse exactly one SQL statement (a trailing `;` is allowed).
pub fn parse_sql(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_statement()?;
    p.eat_symbol(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script into a statement list.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut stmts = Vec::new();
    loop {
        while p.eat_symbol(";") {}
        if p.at_eof() {
            break;
        }
        (p.chained, p.deepest) = (0, 0);
        stmts.push(p.parse_statement()?);
        if !p.eat_symbol(";") {
            break;
        }
    }
    p.expect_eof()?;
    Ok(stmts)
}

/// Deepest nesting — parenthesised expressions and set operations,
/// subqueries, join trees, `NOT`/sign chains, `EXPLAIN` prefixes — the
/// parser follows before it rejects the statement. Recursive descent
/// spends stack per level, and a stack overflow aborts the whole process,
/// every other session with it. The costliest level, a subquery, measures
/// about 15 KB of stack unoptimized (3 KB optimized), so the limit keeps
/// the parser within a 2 MiB stack — what every thread but main gets — in
/// either build. Hand-written SQL nests a handful of levels.
const MAX_NESTING_DEPTH: usize = 100;

/// What the left-deep chains of one statement may weigh in all. A
/// statement that nests nothing still builds a deep tree — `a + b + c`
/// is `(a + b) + c`, and so are `UNION` arms, `JOIN`s and a `FROM` list —
/// which the planner, the optimizer, the executor and `Drop` all recurse
/// over, one frame per link. The chains of a statement can end up on one
/// path of its tree, so they share one budget, by what a link costs: on a
/// 2 MiB stack an unoptimized build survives 97 chained joins, 96 `UNION`
/// arms or 387 binary operators (1,240 / 1,240 / 2,714 optimized), so a
/// join or a set-operation arm weighs [`TREE_LINK`] operators and the
/// budget allows 64 of those, or 256 operators, or a mix.
const MAX_CHAIN_WEIGHT: usize = 256;
/// Weight of a join, a `FROM`-list comma or a set-operation arm.
const TREE_LINK: usize = 4;
/// Weight of a binary operator.
const EXPR_LINK: usize = 1;

/// What nesting and chains may weigh together. A chain can lie at the
/// deepest level of its statement, and the planner spends about 13 KB of
/// stack per subquery level unoptimized on top of the chain's: 60 nested
/// subqueries around 257 `+` terms overflowed a 2 MiB stack. So the
/// deepest level a statement reaches weighs [`NEST_LINK`] per level on
/// top of its chains; the heaviest statement this admits needs about
/// 1.6 MiB unoptimized.
const MAX_STACK_WEIGHT: usize = 320;
/// Weight of one nesting level against [`MAX_STACK_WEIGHT`].
const NEST_LINK: usize = 3;

/// Token-stream parser. Construct with [`Parser::new`], then call
/// [`Parser::parse_statement`].
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open [`Parser::nested`] levels.
    depth: usize,
    /// Weight of the chain links of the current statement so far.
    chained: usize,
    /// Deepest [`Parser::nested`] level of the current statement so far.
    deepest: usize,
}

impl Parser {
    /// Tokenize `sql` and position at the first token.
    pub fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            depth: 0,
            chained: 0,
            deepest: 0,
        })
    }

    /// Account for one more link of a left-deep chain; see
    /// [`MAX_CHAIN_WEIGHT`].
    fn link(&mut self, weight: usize) -> Result<()> {
        self.chained += weight;
        if self.chained > MAX_CHAIN_WEIGHT {
            return Err(Error::parse_at(
                format!(
                    "statement chains more than {} joins or set operations, \
                     or {MAX_CHAIN_WEIGHT} binary operators",
                    MAX_CHAIN_WEIGHT / TREE_LINK
                ),
                self.peek_pos(),
            ));
        }
        self.check_stack_weight()
    }

    /// Nesting and chains together against [`MAX_STACK_WEIGHT`].
    fn check_stack_weight(&self) -> Result<()> {
        if self.chained + NEST_LINK * self.deepest > MAX_STACK_WEIGHT {
            return Err(Error::parse_at(
                format!(
                    "statement is nested {} levels deep around chains of weight {}; \
                     together they may weigh {MAX_STACK_WEIGHT}, a level {NEST_LINK}",
                    self.deepest, self.chained
                ),
                self.peek_pos(),
            ));
        }
        Ok(())
    }

    /// Run `f` one nesting level down; every recursive production goes
    /// through here, so [`MAX_NESTING_DEPTH`] bounds the parser's stack.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(Error::parse_at(
                format!("statement is nested more than {MAX_NESTING_DEPTH} levels deep"),
                self.peek_pos(),
            ));
        }
        self.deepest = self.deepest.max(self.depth + 1);
        self.check_stack_weight()?;
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    // ---- token helpers -----------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        Error::parse_at(
            format!("expected {wanted}, found {:?}", self.peek()),
            self.peek_pos(),
        )
    }

    /// True when the next token is the keyword `kw` (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(w) if w == kw)
    }

    fn at_keyword_ahead(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_ahead(n), TokenKind::Ident(w) if w == kw)
    }

    /// Consume keyword `kw` if present; returns whether it was consumed.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {}", kw.to_uppercase())))
        }
    }

    fn at_symbol(&self, s: &str) -> bool {
        matches!(self.peek(), TokenKind::Symbol(sym) if *sym == s)
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if self.at_symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{s}'")))
        }
    }

    /// Parse an identifier (unquoted identifiers must not be reserved).
    fn parse_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(w) => {
                if RESERVED.contains(&w.as_str()) {
                    Err(self.unexpected("identifier"))
                } else {
                    self.advance();
                    Ok(w)
                }
            }
            TokenKind::QuotedIdent(w) => {
                self.advance();
                Ok(w)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn parse_u64(&mut self) -> Result<u64> {
        match self.peek().clone() {
            TokenKind::Int(v) if v >= 0 => {
                self.advance();
                Ok(v as u64)
            }
            _ => Err(self.unexpected("a non-negative integer")),
        }
    }

    // ---- statements ---------------------------------------------------

    /// Parse one statement.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        if self.eat_keyword("explain") {
            let analyze = self.eat_keyword("analyze");
            return Ok(Statement::Explain {
                statement: Box::new(self.nested(Self::parse_statement)?),
                analyze,
            });
        }
        if self.at_keyword("select") || self.at_keyword("with") || self.at_symbol("(") {
            return Ok(Statement::Query(self.parse_query()?));
        }
        if self.at_keyword("create") {
            return self.parse_create_table();
        }
        if self.at_keyword("drop") {
            return self.parse_drop_table();
        }
        if self.at_keyword("insert") {
            return self.parse_insert();
        }
        if self.at_keyword("update") {
            return self.parse_update();
        }
        if self.at_keyword("delete") {
            return self.parse_delete();
        }
        Err(self.unexpected("a SQL statement"))
    }

    fn parse_create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let if_not_exists = if self.at_keyword("if") {
            self.advance();
            self.expect_keyword("not")?;
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.parse_ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        let mut primary_key = None;
        loop {
            if self.eat_keyword("primary") {
                self.expect_keyword("key")?;
                self.expect_symbol("(")?;
                let col = self.parse_ident()?;
                self.expect_symbol(")")?;
                primary_key = Some(col);
            } else {
                let col_name = self.parse_ident()?;
                let data_type = self.parse_data_type()?;
                let mut pk = false;
                if self.eat_keyword("primary") {
                    self.expect_keyword("key")?;
                    pk = true;
                }
                if pk {
                    primary_key = Some(col_name.clone());
                }
                columns.push(ColumnDef {
                    name: col_name,
                    data_type,
                    primary_key: pk,
                });
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        let mut partition_key = None;
        if self.eat_keyword("partition") {
            self.expect_keyword("by")?;
            self.expect_symbol("(")?;
            partition_key = Some(self.parse_ident()?);
            self.expect_symbol(")")?;
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
            partition_key,
            if_not_exists,
        })
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let word = match self.peek().clone() {
            TokenKind::Ident(w) => w,
            _ => return Err(self.unexpected("a data type")),
        };
        self.advance();
        let dt = match word.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "int4" | "int8" => DataType::Int,
            "float" | "double" | "real" | "numeric" | "decimal" | "float8" | "float4" => {
                DataType::Float
            }
            "text" | "varchar" | "char" | "string" => DataType::Text,
            "bool" | "boolean" => DataType::Bool,
            other => {
                return Err(Error::parse(format!("unknown data type '{other}'")));
            }
        };
        // Optional length/precision arguments, e.g. VARCHAR(20), NUMERIC(10,2).
        if self.eat_symbol("(") {
            loop {
                match self.peek() {
                    TokenKind::Int(_) => {
                        self.advance();
                    }
                    _ => return Err(self.unexpected("a type parameter")),
                }
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        Ok(dt)
    }

    fn parse_drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword("drop")?;
        self.expect_keyword("table")?;
        let if_exists = if self.at_keyword("if") {
            self.advance();
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.parse_ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.parse_ident()?;
        // Optional column list: disambiguate from a following SELECT by
        // looking one token past '('.
        let mut columns = None;
        if self.at_symbol("(")
            && !self.at_keyword_ahead(1, "select")
            && !self.at_keyword_ahead(1, "with")
        {
            self.expect_symbol("(")?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.parse_ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            columns = Some(cols);
        }
        let source = if self.eat_keyword("values") {
            let mut rows = Vec::new();
            loop {
                self.expect_symbol("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                rows.push(row);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(Box::new(self.parse_query()?))
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_keyword("update")?;
        let table = self.parse_ident()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.parse_ident()?;
            self.expect_symbol("=")?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let from = if self.eat_keyword("from") {
            Some(self.parse_table_ref()?)
        } else {
            None
        };
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            from,
            selection,
        })
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.parse_ident()?;
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, selection })
    }

    // ---- queries ------------------------------------------------------

    /// Parse a query: `[WITH ...] set_expr [ORDER BY ...] [LIMIT n]`.
    pub fn parse_query(&mut self) -> Result<Query> {
        self.nested(Self::parse_query_body)
    }

    fn parse_query_body(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_keyword("with") {
            let recursive = self.eat_keyword("recursive");
            let iterative = !recursive && self.eat_keyword("iterative");
            loop {
                ctes.push(self.parse_cte(recursive, iterative)?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let body = self.parse_set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                let mut nulls_first = asc; // default: NULLS sort as smallest
                if self.eat_keyword("nulls") {
                    if self.eat_keyword("first") {
                        nulls_first = true;
                    } else {
                        self.expect_keyword("last")?;
                        nulls_first = false;
                    }
                }
                order_by.push(OrderByExpr {
                    expr,
                    asc,
                    nulls_first,
                });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("limit") {
            Some(self.parse_u64()?)
        } else {
            None
        };
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
        })
    }

    fn parse_cte(&mut self, recursive: bool, iterative: bool) -> Result<Cte> {
        let name = self.parse_ident()?;
        let mut columns = Vec::new();
        if self.eat_symbol("(") {
            loop {
                columns.push(self.parse_ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        self.expect_keyword("as")?;
        self.expect_symbol("(")?;
        let kind = if iterative {
            let init = self.parse_query()?;
            self.expect_keyword("iterate")?;
            let step = self.parse_query()?;
            self.expect_keyword("until")?;
            let until = self.parse_termination()?;
            CteKind::Iterative {
                init: Box::new(init),
                step: Box::new(step),
                until,
            }
        } else if recursive {
            // ANSI recursive CTE: the body is `base UNION [ALL] step`.
            let q = self.parse_query()?;
            match q.body {
                SetExpr::SetOp {
                    op: SetOp::Union,
                    all,
                    left,
                    right,
                } if q.ctes.is_empty() && q.order_by.is_empty() && q.limit.is_none() => {
                    CteKind::Recursive {
                        base: Box::new(Query::plain(*left)),
                        step: Box::new(Query::plain(*right)),
                        union_all: all,
                    }
                }
                _ => {
                    return Err(Error::parse(format!(
                        "recursive CTE '{name}' must be 'base UNION [ALL] step'"
                    )))
                }
            }
        } else {
            CteKind::Regular(Box::new(self.parse_query()?))
        };
        self.expect_symbol(")")?;
        Ok(Cte {
            name,
            columns,
            kind,
        })
    }

    /// Termination grammar:
    /// `N ITERATIONS | N UPDATES | DELTA < N | [ANY] (expr) [, N ROWS]`.
    fn parse_termination(&mut self) -> Result<Termination> {
        if let TokenKind::Int(n) = self.peek().clone() {
            if n < 0 {
                return Err(self.unexpected("a non-negative iteration count"));
            }
            self.advance();
            if self.eat_keyword("iterations") || self.eat_keyword("iteration") {
                return Ok(Termination::Iterations(n as u64));
            }
            if self.eat_keyword("updates") || self.eat_keyword("update") {
                return Ok(Termination::Updates(n as u64));
            }
            return Err(self.unexpected("ITERATIONS or UPDATES"));
        }
        if self.at_keyword("delta") {
            self.advance();
            self.expect_symbol("<")?;
            let threshold = self.parse_u64()?;
            return Ok(Termination::Delta { threshold });
        }
        let _any = self.eat_keyword("any"); // ANY is sugar for "1 ROWS"
        self.expect_symbol("(")?;
        let expr = self.parse_expr()?;
        self.expect_symbol(")")?;
        let mut rows = 1;
        if self.eat_symbol(",") {
            rows = self.parse_u64()?;
            self.expect_keyword("rows")?;
        }
        Ok(Termination::Data { expr, rows })
    }

    /// `set_expr := set_primary ((UNION|EXCEPT|INTERSECT) [ALL] set_primary)*`
    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_set_primary()?;
        loop {
            let op = if self.at_keyword("union") {
                SetOp::Union
            } else if self.at_keyword("except") {
                SetOp::Except
            } else if self.at_keyword("intersect") {
                SetOp::Intersect
            } else {
                break;
            };
            self.advance();
            self.link(TREE_LINK)?;
            let all = self.eat_keyword("all");
            let right = self.parse_set_primary()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_set_primary(&mut self) -> Result<SetExpr> {
        if self.at_symbol("(") {
            self.expect_symbol("(")?;
            let inner = self.nested(Self::parse_set_expr)?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        Ok(SetExpr::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");
        let mut projection = Vec::new();
        loop {
            projection.push(self.parse_select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_keyword("from") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_symbol(",") {
                    break;
                }
                self.link(TREE_LINK)?;
            }
        }
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident(name) = self.peek().clone() {
            if !RESERVED.contains(&name.as_str())
                && matches!(self.peek_ahead(1), TokenKind::Symbol("."))
                && matches!(self.peek_ahead(2), TokenKind::Symbol("*"))
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("as") {
            return Ok(Some(self.parse_ident()?));
        }
        match self.peek().clone() {
            TokenKind::Ident(w) if !RESERVED.contains(&w.as_str()) => {
                self.advance();
                Ok(Some(w))
            }
            TokenKind::QuotedIdent(w) => {
                self.advance();
                Ok(Some(w))
            }
            _ => Ok(None),
        }
    }

    // ---- FROM clause ---------------------------------------------------

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.eat_keyword("cross") {
                self.expect_keyword("join")?;
                JoinKind::Cross
            } else if self.eat_keyword("inner") {
                self.expect_keyword("join")?;
                JoinKind::Inner
            } else if self.eat_keyword("left") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::LeftOuter
            } else if self.eat_keyword("right") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::RightOuter
            } else if self.eat_keyword("full") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::FullOuter
            } else if self.eat_keyword("join") {
                JoinKind::Inner
            } else {
                break;
            };
            self.link(TREE_LINK)?;
            let right = self.parse_table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_keyword("on")?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.eat_symbol("(") {
            // Either a subquery or a parenthesised join tree.
            if self.at_keyword("select") || self.at_keyword("with") {
                let query = self.parse_query()?;
                self.expect_symbol(")")?;
                let alias = self.parse_optional_alias()?;
                return Ok(TableRef::Subquery {
                    query: Box::new(query),
                    alias,
                });
            }
            let inner = self.nested(Self::parse_table_ref)?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        let name = self.parse_ident()?;
        let alias = self.parse_optional_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions ----------------------------------------------------

    /// Parse a scalar expression (public for termination conditions etc.).
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            self.link(EXPR_LINK)?;
            let right = self.parse_and()?;
            left = left.binary(BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("and") {
            self.link(EXPR_LINK)?;
            let right = self.parse_not()?;
            left = left.binary(BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            let expr = self.nested(Self::parse_not)?;
            return Ok(Expr::UnaryOp {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.at_keyword("is") {
            self.advance();
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / [NOT] BETWEEN
        let negated = if self.at_keyword("not")
            && (self.at_keyword_ahead(1, "in") || self.at_keyword_ahead(1, "between"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_keyword("in") {
            self.expect_symbol("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("between") {
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(self.unexpected("IN or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            TokenKind::Symbol("=") => BinaryOp::Eq,
            TokenKind::Symbol("!=") | TokenKind::Symbol("<>") => BinaryOp::NotEq,
            TokenKind::Symbol("<") => BinaryOp::Lt,
            TokenKind::Symbol("<=") => BinaryOp::LtEq,
            TokenKind::Symbol(">") => BinaryOp::Gt,
            TokenKind::Symbol(">=") => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(left.binary(op, right))
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol("+") => BinaryOp::Plus,
                TokenKind::Symbol("-") => BinaryOp::Minus,
                _ => break,
            };
            self.advance();
            self.link(EXPR_LINK)?;
            let right = self.parse_multiplicative()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol("*") => BinaryOp::Multiply,
                TokenKind::Symbol("/") => BinaryOp::Divide,
                TokenKind::Symbol("%") => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            self.link(EXPR_LINK)?;
            let right = self.parse_unary()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_symbol("-") {
            let expr = self.nested(Self::parse_unary)?;
            // Fold negation into numeric literals immediately.
            if let Expr::Literal(Value::Int(i)) = expr {
                return Ok(Expr::Literal(Value::Int(-i)));
            }
            if let Expr::Literal(Value::Float(f)) = expr {
                return Ok(Expr::Literal(Value::Float(-f)));
            }
            return Ok(Expr::UnaryOp {
                op: UnaryOp::Minus,
                expr: Box::new(expr),
            });
        }
        if self.eat_symbol("+") {
            let expr = self.nested(Self::parse_unary)?;
            return Ok(Expr::UnaryOp {
                op: UnaryOp::Plus,
                expr: Box::new(expr),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Text(s)))
            }
            TokenKind::Symbol("(") => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            TokenKind::Ident(word) => match word.as_str() {
                "null" => {
                    self.advance();
                    Ok(Expr::Literal(Value::Null))
                }
                "true" => {
                    self.advance();
                    Ok(Expr::Literal(Value::Bool(true)))
                }
                "false" => {
                    self.advance();
                    Ok(Expr::Literal(Value::Bool(false)))
                }
                "case" => self.parse_case(),
                "cast" => self.parse_cast(),
                _ => self.parse_column_or_function(),
            },
            TokenKind::QuotedIdent(_) => self.parse_column_or_function(),
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_keyword("case")?;
        let operand = if self.at_keyword("when") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_keyword("when") {
            let w = self.parse_expr()?;
            self.expect_keyword("then")?;
            let t = self.parse_expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_expr = if self.eat_keyword("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("end")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }

    fn parse_cast(&mut self) -> Result<Expr> {
        self.expect_keyword("cast")?;
        self.expect_symbol("(")?;
        let expr = self.parse_expr()?;
        self.expect_keyword("as")?;
        let data_type = self.parse_data_type()?;
        self.expect_symbol(")")?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            data_type,
        })
    }

    fn parse_column_or_function(&mut self) -> Result<Expr> {
        let start = self.peek_pos();
        let first = match self.peek().clone() {
            TokenKind::Ident(w) => {
                // Function names may collide with soft keywords; columns may not.
                self.advance();
                w
            }
            TokenKind::QuotedIdent(w) => {
                self.advance();
                w
            }
            _ => return Err(self.unexpected("identifier")),
        };
        if self.at_symbol("(") {
            // function call
            self.advance();
            let mut args = Vec::new();
            let mut distinct = false;
            let mut star = false;
            if self.eat_symbol("*") {
                star = true;
            } else if !self.at_symbol(")") {
                distinct = self.eat_keyword("distinct");
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::Function {
                name: first,
                args,
                distinct,
                star,
            });
        }
        if self.at_symbol(".") && !matches!(self.peek_ahead(1), TokenKind::Symbol("*")) {
            self.advance();
            let name = match self.peek().clone() {
                TokenKind::Ident(w) if !RESERVED.contains(&w.as_str()) => {
                    self.advance();
                    w
                }
                TokenKind::QuotedIdent(w) => {
                    self.advance();
                    w
                }
                _ => return Err(self.unexpected("a column name after '.'")),
            };
            return Ok(Expr::Column {
                relation: Some(first),
                name,
            });
        }
        if RESERVED.contains(&first.as_str()) {
            return Err(Error::parse_at(
                format!("reserved word '{first}' cannot be used as a column reference"),
                start,
            ));
        }
        Ok(Expr::Column {
            relation: None,
            name: first,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> Query {
        match parse_sql(sql).unwrap() {
            Statement::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let query = q("SELECT a, b + 1 AS c FROM t WHERE a > 10");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        assert_eq!(s.projection.len(), 2);
        assert!(s.selection.is_some());
    }

    #[test]
    fn select_without_from() {
        let query = q("SELECT 1 + 2");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        assert!(s.from.is_empty());
    }

    #[test]
    fn operator_precedence() {
        let query = q("SELECT 1 + 2 * 3");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(expr.to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let query = q("SELECT 1 WHERE a OR b AND c");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        assert_eq!(
            s.selection.as_ref().unwrap().to_string(),
            "(a OR (b AND c))"
        );
    }

    #[test]
    fn join_tree() {
        let query = q("SELECT * FROM pr LEFT JOIN edges AS e ON pr.node = e.dst \
             LEFT JOIN pr AS p2 ON p2.node = e.src");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let TableRef::Join { kind, left, .. } = &s.from[0] else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::LeftOuter);
        assert!(matches!(**left, TableRef::Join { .. }));
    }

    #[test]
    fn group_by_and_having() {
        let query = q("SELECT src, COUNT(dst) FROM edges GROUP BY src HAVING COUNT(dst) > 2");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn union_in_subquery() {
        let query = q("SELECT src FROM (SELECT src FROM edges UNION SELECT dst FROM edges)");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let TableRef::Subquery { query: sub, .. } = &s.from[0] else {
            panic!()
        };
        assert!(matches!(
            sub.body,
            SetExpr::SetOp {
                op: SetOp::Union,
                all: false,
                ..
            }
        ));
    }

    #[test]
    fn regular_cte() {
        let query = q("WITH t AS (SELECT 1 AS x) SELECT x FROM t");
        assert_eq!(query.ctes.len(), 1);
        assert!(matches!(query.ctes[0].kind, CteKind::Regular(_)));
    }

    #[test]
    fn recursive_cte_splits_base_and_step() {
        let query = q(
            "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5) \
             SELECT n FROM r",
        );
        let CteKind::Recursive { union_all, .. } = &query.ctes[0].kind else {
            panic!()
        };
        assert!(*union_all);
    }

    #[test]
    fn iterative_cte_metadata_termination() {
        let query = q("WITH ITERATIVE pagerank (node, rank, delta) AS (
                SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
             ITERATE
                SELECT pagerank.node, pagerank.rank + pagerank.delta,
                       0.85 * SUM(ir.delta * ie.weight)
                FROM pagerank
                LEFT JOIN edges AS ie ON pagerank.node = ie.dst
                LEFT JOIN pagerank AS ir ON ir.node = ie.src
                GROUP BY pagerank.node, pagerank.rank + pagerank.delta
             UNTIL 10 ITERATIONS)
             SELECT node, rank FROM pagerank");
        assert_eq!(query.ctes.len(), 1);
        assert_eq!(query.ctes[0].columns, vec!["node", "rank", "delta"]);
        let CteKind::Iterative { until, .. } = &query.ctes[0].kind else {
            panic!()
        };
        assert_eq!(*until, Termination::Iterations(10));
    }

    #[test]
    fn iterative_cte_delta_termination() {
        let query = q(
            "WITH ITERATIVE t (a) AS (SELECT 1 ITERATE SELECT a + 1 FROM t UNTIL DELTA < 1) \
             SELECT * FROM t",
        );
        let CteKind::Iterative { until, .. } = &query.ctes[0].kind else {
            panic!()
        };
        assert_eq!(*until, Termination::Delta { threshold: 1 });
    }

    #[test]
    fn iterative_cte_data_termination() {
        let query = q(
            "WITH ITERATIVE t (a) AS (SELECT 1 ITERATE SELECT a + 1 FROM t \
             UNTIL (a > 100), 5 ROWS) SELECT * FROM t",
        );
        let CteKind::Iterative { until, .. } = &query.ctes[0].kind else {
            panic!()
        };
        let Termination::Data { rows, .. } = until else {
            panic!()
        };
        assert_eq!(*rows, 5);
    }

    #[test]
    fn iterative_cte_any_termination_defaults_to_one_row() {
        let query = q(
            "WITH ITERATIVE t (a) AS (SELECT 1 ITERATE SELECT a + 1 FROM t \
             UNTIL ANY (a > 100)) SELECT * FROM t",
        );
        let CteKind::Iterative { until, .. } = &query.ctes[0].kind else {
            panic!()
        };
        assert_eq!(
            *until,
            Termination::Data {
                expr: Expr::col("a").binary(BinaryOp::Gt, Expr::lit(100i64)),
                rows: 1
            }
        );
    }

    #[test]
    fn updates_termination() {
        let query = q(
            "WITH ITERATIVE t (a) AS (SELECT 1 ITERATE SELECT a + 1 FROM t \
             UNTIL 100 UPDATES) SELECT * FROM t",
        );
        let CteKind::Iterative { until, .. } = &query.ctes[0].kind else {
            panic!()
        };
        assert_eq!(*until, Termination::Updates(100));
    }

    #[test]
    fn case_when_and_functions() {
        let query = q("SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END FROM edges");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projection[2] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Case { .. }));
    }

    #[test]
    fn ff_query_parses() {
        // Figure 6 of the paper, verbatim structure.
        let query = q("WITH ITERATIVE forecast (node, friends, friendsPrev)
             AS( SELECT src AS node, count(dst) AS friends,
                    ceiling(count(dst) * (1.0-(src%10)/100.0)) AS friendsPrev
                 FROM edges GROUP BY src
               ITERATE
                 SELECT node AS node,
                    round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends,
                    friends AS friendsPrev
                 FROM forecast
               UNTIL 5 Iterations )
             SELECT node, friends
             FROM forecast WHERE MOD(node, 100) = 0
             ORDER BY friends DESC LIMIT 10");
        assert_eq!(query.limit, Some(10));
        assert_eq!(query.order_by.len(), 1);
        assert!(!query.order_by[0].asc);
    }

    #[test]
    fn sssp_query_parses() {
        // Figure 7 of the paper.
        let query = q("WITH ITERATIVE sssp (Node, Distance, Delta)
             AS (SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
                 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
              ITERATE
                SELECT sssp.node,
                  LEAST(sssp.distance, sssp.delta),
                  COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
                FROM sssp
                 LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
                 LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
                WHERE IncomingDistance.Delta != 9999999
                GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
              UNTIL 10 ITERATIONS)
             SELECT Distance FROM sssp WHERE Node = 10");
        let CteKind::Iterative { step, .. } = &query.ctes[0].kind else {
            panic!()
        };
        let SetExpr::Select(s) = &step.body else {
            panic!()
        };
        assert!(
            s.selection.is_some(),
            "SSSP iterative part has a WHERE clause"
        );
        assert_eq!(s.group_by.len(), 2);
    }

    #[test]
    fn create_table_with_keys() {
        let stmt = parse_sql(
            "CREATE TABLE edges (src INT, dst INT, weight FLOAT, PRIMARY KEY (src)) \
             PARTITION BY (dst)",
        )
        .unwrap();
        let Statement::CreateTable {
            columns,
            primary_key,
            partition_key,
            ..
        } = stmt
        else {
            panic!()
        };
        assert_eq!(columns.len(), 3);
        assert_eq!(primary_key.as_deref(), Some("src"));
        assert_eq!(partition_key.as_deref(), Some("dst"));
    }

    #[test]
    fn insert_values_and_select() {
        let v = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert {
            source: InsertSource::Values(rows),
            ..
        } = v
        else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        let s = parse_sql("INSERT INTO t SELECT a, b FROM u").unwrap();
        assert!(matches!(
            s,
            Statement::Insert {
                source: InsertSource::Query(_),
                ..
            }
        ));
    }

    #[test]
    fn update_with_from() {
        let stmt = parse_sql(
            "UPDATE pagerank SET rank = i.rank, delta = i.delta FROM intermediate AS i \
             WHERE pagerank.node = i.node",
        )
        .unwrap();
        let Statement::Update {
            assignments,
            from,
            selection,
            ..
        } = stmt
        else {
            panic!()
        };
        assert_eq!(assignments.len(), 2);
        assert!(from.is_some());
        assert!(selection.is_some());
    }

    #[test]
    fn delete_and_drop() {
        assert!(matches!(
            parse_sql("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_sql("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn explain_wraps_statement() {
        let stmt = parse_sql("EXPLAIN SELECT 1").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: false, .. }));
    }

    #[test]
    fn explain_analyze_sets_flag() {
        let stmt = parse_sql("EXPLAIN ANALYZE SELECT 1").unwrap();
        let Statement::Explain { statement, analyze } = stmt else {
            panic!("not an explain");
        };
        assert!(analyze);
        assert!(matches!(*statement, Statement::Query(_)));
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_statements("SELECT 1; SELECT 2;; SELECT 3").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn error_position_reported() {
        let err = parse_sql("SELECT FROM t").unwrap_err();
        assert!(matches!(
            err,
            Error::Parse {
                position: Some(_),
                ..
            }
        ));
    }

    /// 20 KB of parentheses or `NOT`s used to overflow the stack and abort
    /// the process; now it is a parse error with a position, and nesting
    /// no hand-written statement reaches still parses.
    #[test]
    fn nesting_depth_is_bounded() {
        let parens = |n: usize| format!("SELECT {}1{}", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("SELECT {}TRUE", "NOT ".repeat(n));
        let subqueries = |n: usize| {
            format!(
                "SELECT * FROM {}t{}",
                "(SELECT * FROM ".repeat(n),
                ")".repeat(n)
            )
        };
        for sql in [parens(90), nots(90), subqueries(90)] {
            parse_sql(&sql).unwrap_or_else(|e| panic!("{e}"));
        }
        for sql in [
            parens(10_000),
            nots(10_000),
            subqueries(10_000),
            format!("SELECT {}1", "- ".repeat(10_000)),
            format!("{}SELECT 1", "EXPLAIN ".repeat(10_000)),
            format!("{}SELECT 1{}", "(".repeat(10_000), ")".repeat(10_000)),
        ] {
            match parse_sql(&sql) {
                Err(Error::Parse {
                    message,
                    position: Some(_),
                }) => assert!(message.contains("nested"), "{message}"),
                other => panic!("expected a nesting error, got {other:?}"),
            }
        }
    }

    /// A statement that nests nothing — 60,000 `UNION ALL` arms, 100,000
    /// `+`s — used to parse into a left-deep tree the planner, optimizer,
    /// executor and `Drop` overflowed the stack on; now its chains have a
    /// budget, which no hand-written statement reaches.
    #[test]
    fn chain_length_is_bounded() {
        let arms = |n: usize| vec!["SELECT 1"; n + 1].join(" UNION ALL ");
        let sums = |n: usize| format!("SELECT {}", vec!["1"; n + 1].join(" + "));
        let ands = |n: usize| format!("SELECT 1 WHERE {}", vec!["a = 1"; n + 1].join(" AND "));
        let ors = |n: usize| format!("SELECT 1 WHERE {}", vec!["a = 1"; n + 1].join(" OR "));
        let products = |n: usize| format!("SELECT {}", vec!["a"; n + 1].join(" * "));
        let joins = |n: usize| format!("SELECT 1 FROM t{}", " JOIN t ON a = b".repeat(n));
        let commas = |n: usize| format!("SELECT 1 FROM t{}", ", t".repeat(n));
        for sql in [
            arms(64),
            joins(64),
            commas(64),
            sums(256),
            ands(256),
            ors(256),
            products(256),
        ] {
            parse_sql(&sql).unwrap_or_else(|e| panic!("{e}"));
        }
        // Chains share the budget: they may all lie on one path of the tree.
        let mixed = |joined| format!("{} UNION ALL {}", sums(128), joins(joined));
        parse_sql(&mixed(31)).unwrap_or_else(|e| panic!("{e}"));
        for sql in [
            arms(60_000),
            sums(100_000),
            arms(65),
            joins(65),
            commas(65),
            sums(257),
            ands(257),
            ors(257),
            products(257),
            mixed(32),
        ] {
            match parse_sql(&sql) {
                Err(Error::Parse {
                    message,
                    position: Some(_),
                }) => assert!(message.contains("chains"), "{message}"),
                other => panic!("expected a chain-length error, got {other:?}"),
            }
        }
        // Each statement of a script has the budget to itself.
        let script = vec![sums(200); 3].join("; ");
        assert_eq!(parse_statements(&script).unwrap().len(), 3);
    }

    /// A chain can lie at the bottom of deep nesting, so the two share
    /// one stack budget on top of their own bounds.
    #[test]
    fn nesting_and_chains_share_a_budget() {
        let nested_sum = |levels: usize, ops: usize| {
            format!(
                "SELECT * FROM {}(SELECT {} FROM t){}",
                "(SELECT * FROM ".repeat(levels),
                vec!["k"; ops + 1].join(" + "),
                ")".repeat(levels)
            )
        };
        for sql in [nested_sum(20, 250), nested_sum(60, 130), nested_sum(97, 19)] {
            parse_sql(&sql).unwrap_or_else(|e| panic!("{e}"));
        }
        for sql in [
            nested_sum(20, 256),
            nested_sum(60, 140),
            nested_sum(97, 256),
        ] {
            match parse_sql(&sql) {
                Err(Error::Parse {
                    message,
                    position: Some(_),
                }) => assert!(message.contains("together"), "{message}"),
                other => panic!("expected a stack-weight error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_sql("SELECT 1 garbage garbage").is_err());
    }

    #[test]
    fn in_list_and_between() {
        let query = q("SELECT 1 WHERE a IN (1, 2, 3) AND b NOT BETWEEN 1 AND 5");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let sel = s.selection.as_ref().unwrap().to_string();
        assert!(sel.contains("IN"));
        assert!(sel.contains("NOT BETWEEN"));
    }

    #[test]
    fn is_null_parses() {
        let query = q("SELECT 1 WHERE a IS NOT NULL");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        assert!(matches!(
            s.selection.as_ref().unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn count_star() {
        let query = q("SELECT COUNT(*) FROM t");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let SelectItem::Expr {
            expr: Expr::Function { star, .. },
            ..
        } = &s.projection[0]
        else {
            panic!()
        };
        assert!(*star);
    }

    #[test]
    fn negative_literals_fold() {
        let query = q("SELECT -5, -2.5");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(*expr, Expr::Literal(Value::Int(-5)));
    }

    #[test]
    fn multiple_ctes_share_iterative_modifier() {
        let query = q(
            "WITH ITERATIVE a (x) AS (SELECT 1 ITERATE SELECT x + 1 FROM a UNTIL 2 ITERATIONS), \
             b (y) AS (SELECT 2 ITERATE SELECT y FROM b UNTIL 1 ITERATIONS) \
             SELECT * FROM a, b",
        );
        assert_eq!(query.ctes.len(), 2);
        assert!(query
            .ctes
            .iter()
            .all(|c| matches!(c.kind, CteKind::Iterative { .. })));
    }

    #[test]
    fn qualified_wildcard() {
        let query = q("SELECT e.* FROM edges e");
        let SetExpr::Select(s) = &query.body else {
            panic!()
        };
        assert_eq!(s.projection[0], SelectItem::QualifiedWildcard("e".into()));
    }
}
