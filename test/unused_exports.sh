#!/bin/sh
# Usage: unused_exports.sh FILE...
#
# FILE... are the .ml/.mli sources of lib/, bin/, perfbench/, examples/
# and test/.  Prints every `val` declared in a lib/ .mli that no given file
# other than its own module's .ml and .mli uses, and exits 1 when there is
# one: an export nothing outside the module reads belongs inside it, or
# nowhere.
#
# A use is the name qualified by its module (`Config.pp`,
# `Dgs_core.Config.pp`) or by a submodule its .mli declares
# (`Trace.Ring.create`), directly or through a `module X = ...M` alias
# declared in the same file.  A bare word does not count: `filter`,
# `jobs` or `pp` occur everywhere (`List.filter`, `~jobs`, other modules'
# homonyms) and would hide an unused export.  So a name read only through
# `open M` or a local open `M.( ... )` is reported: qualify the use.
awk '
  function stem(f) { sub(/\.mli?$/, "", f); return f }
  function last(path) { sub(/^.*\./, "", path); return path }
  FNR == 1 {
    s = stem(FILENAME)
    lib_mli = FILENAME ~ /(^|\/)lib\/.*\.mli$/
    if (lib_mli) {
      m = s
      sub(/^.*\//, "", m)
      qual[s SUBSEP toupper(substr(m, 1, 1)) substr(m, 2)] = 1
    }
  }
  lib_mli && $1 == "val" {
    name = $2
    sub(/:.*/, "", name)
    if (name ~ /^[a-z_][A-Za-z0-9_]*$/ && !((name SUBSEP s) in decl)) {
      decl[name SUBSEP s] = FILENAME ":" FNR
      exporters[name] = exporters[name] " " s
    }
  }
  lib_mli && match($0, /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*/) {
    q = substr($0, RSTART, RLENGTH)
    sub(/^[ \t]*module[ \t]+/, "", q)
    qual[s SUBSEP q] = 1
  }
  {
    line = $0
    if (match(line, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*/)) {
      a = substr(line, RSTART, RLENGTH)
      x = a
      sub(/^module[ \t]+/, "", x)
      sub(/[ \t]*=.*$/, "", x)
      sub(/^[^=]*=[ \t]*/, "", a)
      alias[FILENAME SUBSEP x] = last(a)
    }
    while (match(line, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_]*/)) {
      q = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      n = last(q)
      sub(/\.[a-z_][A-Za-z0-9_]*$/, "", q)
      use[FILENAME SUBSEP last(q) SUBSEP n] = s
    }
  }
  END {
    for (k in use) {
      split(k, p, SUBSEP)
      r = ((p[1] SUBSEP p[2]) in alias) ? alias[p[1] SUBSEP p[2]] : p[2]
      nd = split(exporters[p[3]], ds, " ")
      for (i = 1; i <= nd; i++)
        if (ds[i] != use[k] && ((ds[i] SUBSEP r) in qual)) used[p[3] SUBSEP ds[i]] = 1
    }
    bad = 0
    for (k in decl)
      if (!(k in used)) {
        split(k, p, SUBSEP)
        print decl[k] ": val " p[1] " is named nowhere outside its module"
        bad = 1
      }
    exit bad
  }
' "$@"
