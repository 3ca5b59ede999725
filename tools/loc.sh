#!/bin/sh
# The counting rule every PR reports (ROADMAP aim 2): non-test, non-doc
# lines under crates/, plus the EngineConfig field count: the rows of the
# option table in crates/common/src/config.rs plus the fields declared by
# hand in the struct. Exits non-zero when it counts no field, so a change
# to how options are declared cannot make the count silently drop to 0.
#
# A line counts when it is not blank, does not start with `//` (so `///`
# and `//!` docs are skipped too), comes before the file's
# `#[cfg(test)] mod`, and the file is not under a tests/ or benches/
# directory.
#
#   tools/loc.sh            per-file counts, total, field count
#   tools/loc.sh -t         total and field count only
set -eu
cd "$(dirname "$0")/.."

find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort |
    xargs awk -v totals_only="${1:-}" '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        pending && /^[[:space:]]*(pub )?mod / { in_tests = 1; pending = 0; next }
        # A `#[cfg(test)]` on anything but a module is ordinary code.
        pending { lines[FILENAME]++; total++; pending = 0 }
        { lines[FILENAME]++; total++ }
        END {
            if (totals_only != "-t")
                for (f in lines) printf "%6d %s\n", lines[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d total\n", total
        }'

awk '
    /^option_table! \{/ { table = 1; next }
    table && /^}/ { table = 0 }
    table && /^    [a-z_]+: / { fields++ }
    /pub struct EngineConfig \{/ { inside = 1; next }
    inside && /^[[:space:]]*}/ { inside = 0 }
    inside && /^[[:space:]]*pub [a-z_]+:/ { fields++ }
    END {
        printf "%6d EngineConfig fields\n", fields
        if (fields == 0) exit 1
    }
' crates/common/src/config.rs
