#!/usr/bin/env bash
# Dead-API guard for src/: lists every function declared in a src/**/*.h
# header that production code never references — only tests/ does, or
# nothing does — and fails unless the name is on the allowlist below.
# Production is everything under src/, tools/, bench/, examples/ and
# levabench/. A function that only a test calls is a test helper: it
# belongs in tests/reference/ or in the test that uses it, not in src/.
#
# The scan is lexical, on purpose (no compiler database needed):
#   - a declaration is a line "<type> [Class::]Name(" outside a comment,
#     whose first word is not a statement keyword (return, else, ...);
#   - a reference is any other occurrence of the bare word Name outside a
#     comment or string literal, including calls through `.`, `->`, `::`,
#     member pointers and callbacks passed by name.
# Constructors, destructors and operators are not scanned. A name shared
# with any production identifier counts as referenced, so overloads and
# common names (Get, size, ...) can hide a test-only function; the guard
# catches the distinct names, which is where dead code has collected.
#
# Each allowlist entry is "src/path.h:Name  reason" for one function that
# header declares, or "src/path.h  reason" to allow every name that header
# declares (a test double). Entries name the declaring header, so a new
# test-only function that shares an allowlisted name in another header still
# fails. An entry that matches no test-only declaration any more also fails,
# so the list stays as short as what is really test-only.
#
#   tools/check_test_only_api.sh     (scans the checkout it lives in)
set -euo pipefail

cd "$(dirname "$0")/.."

allowlist='
src/common/fault_injection.h  test double: FaultInjectionEnv and its fault hooks
src/common/logging.h:GetLogLevel          test seam: tests quiet the log and restore its level
src/common/logging.h:SetLogLevel          test seam: tests quiet the log and restore its level
src/embed/walks_batched.h:AliasMemoryBytes  test seam: walk tests bound the flat alias footprint
src/embed/walks_batched.h:visit_counts    test seam: walk differential suites compare visit counts
src/embed/walks_batched.h:block_shift     test seam: walk tests pin the vertex-block geometry
src/embed/walks_batched.h:num_blocks      test seam: walk tests pin the vertex-block geometry
src/embed/word2vec.h:context_vectors      test seam: SGNS differential suites compare both matrices
src/la/decomp.h:explained_variance        test seam: PCA tests check the spectrum is sorted
src/serve/server.h:running                test seam: serve tests observe the drained server stop
src/serve/client.h:Drain                  pending: no production caller; give it one or delete it (ROADMAP item 10)
src/core/pipeline.h:VerifyStorage         pending: no tool runs the deferred page check of a lazy load (ROADMAP item 10)
src/embed/embedding.h:FromText            pending: no production caller; give it one or delete it (ROADMAP item 10)
'

files() {
  find "$@" -type f \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) |
    LC_ALL=C sort
}
headers=$(files src -name '*.h')
production=$(files src tools bench examples levabench)
tests=$(files tests)

# shellcheck disable=SC2086  # the file lists are newline-separated paths
awk -v allowlist="$allowlist" '
function clean(s) {
  # Block comments (possibly spanning lines), then literals, then // tails.
  if (in_block) {
    if (!match(s, /\*\//)) return ""
    s = substr(s, RSTART + 2)
    in_block = 0
  }
  gsub(/\/\*([^*]|\*+[^*\/])*\*+\//, " ", s)
  if (match(s, /\/\*/)) { s = substr(s, 1, RSTART - 1); in_block = 1 }
  gsub(char_literal, "0", s)
  gsub(/"([^"\\]|\\.)*"/, "0", s)
  sub(/\/\/.*$/, "", s)
  return s
}
# The name a declaration line declares, or "" when the line is not one.
function declared(s,    p, head, word) {
  if (s ~ /^[ \t]*#/) return ""
  p = index(s, "(")
  if (p == 0) return ""
  head = substr(s, 1, p - 1)
  # Template arguments may hold commas; a comma outside them is an argument
  # list, so "f(a, Name(" is a call.
  while (gsub(/<[^<>]*>/, "", head)) {}
  if (head !~ /^[ \t]*[A-Za-z_][A-Za-z0-9_:*& \t]*[ \t*&][A-Za-z_][A-Za-z0-9_:]*[ \t]*$/)
    return ""
  match(head, /[A-Za-z_][A-Za-z0-9_]*/)
  word = substr(head, RSTART, RLENGTH)
  if (word ~ /^(return|else|case|new|delete|throw|co_return|goto|using|typedef|if|while|for|switch|do|sizeof|alignof|decltype|static_assert|operator)$/)
    return ""
  match(head, /[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)
  word = substr(head, RSTART, RLENGTH)
  sub(/[ \t]+$/, "", word)
  if (head ~ ("operator[ \t]*" word "[ \t]*$")) return ""
  return word
}
function count(s, kind,    id) {
  while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
    id = substr(s, RSTART, RLENGTH)
    s = substr(s, RSTART + RLENGTH)
    refs[kind, id]++
  }
}
BEGIN {
  char_literal = "\047([^\047\\\\]|\\\\.)\047"
  n = split(allowlist, lines, "\n")
  for (i = 1; i <= n; ++i) {
    if (lines[i] !~ /[^ \t]/) continue
    name = lines[i]; sub(/^[ \t]+/, "", name); sub(/[ \t].*$/, "", name)
    reason = lines[i]; sub(/^[ \t]*[^ \t]+[ \t]*/, "", reason)
    allowed[name] = reason
  }
}
FNR == 1 { in_block = 0 }
{
  s = clean($0)
  d = declared(s)
  if (kind == "decl") {
    if (d != "") {
      if (!(d in where)) ++scanned
      where[d] = 1
      if (!((d, FILENAME) in decl)) decl[d, FILENAME] = FNR
    }
    next
  }
  # A declaration or definition of Name is not a reference to it; the rest
  # of the line (parameters, an inline body) is.
  if (d != "") s = substr(s, index(s, "(") + 1)
  count(s, kind)
}
END {
  bad = 0; flagged = 0
  for (key in decl) {
    split(key, parts, SUBSEP); name = parts[1]; file = parts[2]
    if (refs["prod", name] > 0) continue
    ++flagged
    entry = file ":" name
    if (entry in allowed) { used[entry] = 1; continue }
    if (file in allowed) { used[file] = 1; continue }
    what = refs["test", name] > 0 ? "called only from tests/" : "no reference"
    printf "FAIL %s (%s:%d): %s\n", name, file, decl[key], what
    ++bad
  }
  for (entry in allowed) {
    if (!(entry in used)) {
      printf "FAIL allowlist entry %s: no test-only name matches it\n", entry
      ++bad
    }
  }
  if (bad > 0) {
    printf "%d test-only or unreferenced src/ function(s); move each to tests/, delete it, or allowlist it with a reason\n", bad
    exit 1
  }
  printf "ok: %d src/ function names scanned, %d test-only declaration(s), all allowlisted\n", scanned, flagged
}
' kind=decl $headers kind=prod $production kind=test $tests
