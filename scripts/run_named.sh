# run_named.sh — sourced by scripts/ci.sh and scripts/resume_chaos.sh.
#
# run_named <pattern> <pkg> runs the named tests under -race. `go test -run`
# passes with "[no tests to run]" when a pattern matches nothing, so a
# renamed or moved test would silently leave the gate: every |-alternative
# must first match a test that `go test -list` reports for the package.
run_named() {
    local pattern=$1 pkg=$2 listed alt
    listed=$(go test -list '.' "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
    IFS='|' read -ra alts <<< "$pattern"
    for alt in "${alts[@]}"; do
        if ! grep -Eq -- "$alt" <<< "$listed"; then
            echo "ci: -run alternative '$alt' matches no test in $pkg" >&2
            exit 1
        fi
    done
    go test -race -run "$pattern" "$pkg"
}
