#!/bin/sh
# docs-lint.sh fails if docs/ARCHITECTURE.md, examples/README.md or README.md
# reference a package directory (internal/..., cmd/..., examples/...) that no longer
# exists, so the documentation cannot silently drift from the tree. CI runs
# this on every push.
set -eu

cd "$(dirname "$0")/.."

fail=0
for f in docs/ARCHITECTURE.md examples/README.md README.md; do
    if [ ! -f "$f" ]; then
        echo "docs-lint: $f is missing" >&2
        fail=1
        continue
    fi
    # `|| true`: a doc with no package references is fine (grep exits 1).
    refs="$(grep -ohE '\b(internal|cmd|examples)/[a-z][a-z0-9_]*' "$f" | sort -u || true)"
    for ref in $refs; do
        if [ ! -d "$ref" ]; then
            echo "docs-lint: $f references $ref, which does not exist" >&2
            fail=1
        fi
    done
done

# Every analyzer the architecture guide documents must exist as a source file
# in internal/lint: the "Static analysis" section lists them as table rows of
# the form "| `name` | ...", and ldivlint's analyzers live one per file as
# internal/lint/<name>.go, so the doc cannot advertise an analyzer the suite
# no longer ships.
if [ -f docs/ARCHITECTURE.md ]; then
    analyzers="$(sed -n '/^## Static analysis/,/^## [^S]/p' docs/ARCHITECTURE.md \
        | grep -oE '^\| `[a-z]+`' | tr -d '|` ' || true)"
    if [ -z "$analyzers" ]; then
        echo "docs-lint: docs/ARCHITECTURE.md has no analyzer table under '## Static analysis'" >&2
        fail=1
    fi
    for a in $analyzers; do
        if [ ! -f "internal/lint/$a.go" ]; then
            echo "docs-lint: ARCHITECTURE.md lists analyzer $a but internal/lint/$a.go does not exist" >&2
            fail=1
        fi
    done
fi

# The README's dataset catalog must match the scenario corpus exactly: the
# "## Datasets" section lists families as table rows "| `name` | ...", and
# every family is registered with a `Name: "..."` literal in
# internal/dataset/corpus.go (the only file defining them, by convention
# stated in its header). Both a documented-but-unregistered family and a
# registered-but-undocumented one fail.
if [ -f README.md ]; then
    doc_fams="$(sed -n '/^## Datasets/,/^## [^D]/p' README.md \
        | grep -oE '^\| `[a-z0-9-]+`' | tr -d '|` ' | sort || true)"
    reg_fams="$(grep -oE 'Name:[[:space:]]*"[a-z0-9-]+"' internal/dataset/corpus.go \
        | sed 's/.*"\([a-z0-9-]*\)"/\1/' | sort || true)"
    if [ -z "$doc_fams" ]; then
        echo "docs-lint: README.md has no family table under '## Datasets'" >&2
        fail=1
    elif [ -z "$reg_fams" ]; then
        echo "docs-lint: no Name: literals found in internal/dataset/corpus.go" >&2
        fail=1
    elif [ "$doc_fams" != "$reg_fams" ]; then
        echo "docs-lint: README '## Datasets' table disagrees with internal/dataset/corpus.go:" >&2
        echo "  documented: $(echo $doc_fams)" >&2
        echo "  registered: $(echo $reg_fams)" >&2
        fail=1
    fi
fi

if [ "$fail" -eq 0 ]; then
    echo "docs-lint: OK"
fi
exit "$fail"
