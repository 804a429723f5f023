#!/bin/sh
# Usage: unused_exports.sh FILE...
#
# FILE... are the .ml/.mli sources of lib/, bin/, perfbench/, examples/
# and test/.  Prints every `val` declared in a lib/ .mli whose name appears,
# as a whole word, in no given file other than its own module's .ml and
# .mli, and exits 1 when there is one: an export nothing outside the module
# reads belongs inside it, or nowhere.  A word match over-approximates use
# (a common name counts as used wherever the word occurs), so the check
# only ever misses an unused export, never invents one.
awk '
  function stem(f) { sub(/\.mli?$/, "", f); return f }
  FNR == 1 { s = stem(FILENAME) }
  FILENAME ~ /(^|\/)lib\/.*\.mli$/ && $1 == "val" {
    name = $2
    sub(/:.*/, "", name)
    if (name ~ /^[a-z_][A-Za-z0-9_]*$/) decl[name SUBSEP s] = FILENAME ":" FNR
  }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      w = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      if (!((w SUBSEP s) in use)) { use[w SUBSEP s] = 1; stems[w]++ }
    }
  }
  END {
    bad = 0
    for (k in decl) {
      split(k, p, SUBSEP)
      if (stems[p[1]] - ((k in use) ? 1 : 0) == 0) {
        print decl[k] ": val " p[1] " is named nowhere outside its module"
        bad = 1
      }
    }
    exit bad
  }
' "$@"
