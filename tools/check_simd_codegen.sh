#!/usr/bin/env bash
# Codegen guard for the explicit-lane SIMD kernels (src/common/simd.h):
# disassembles the built leva libraries and fails unless the "avx2" clone of
# every hot multi-versioned caller (SGNS, featurize gather, and the dense LA
# of MF Fit) contains packed 256-bit double mul/add
# (v{mul,add}pd on ymm registers), and unless the SSE4.2 CRC32C kernel
# (Crc32cSse42, src/common/io.cc) contains the 64-bit crc32q instruction.
# A kernel that silently falls back to scalar vmulsd/vaddsd inside the
# clone, or a CRC kernel that falls back to bytewise or table code, still
# passes every value test, so only the instructions themselves show the
# regression.
#
#   tools/check_simd_codegen.sh [BUILD_DIR]     (default: build)
set -euo pipefail

build="${1:-build}"
shopt -s nullglob
libs=("$build"/src/*/libleva_*.a)
if [ "${#libs[@]}" -eq 0 ]; then
  echo "no leva libraries under $build/src — build first" >&2
  exit 2
fi

objdump -d -C --no-show-raw-insn "${libs[@]}" | awk '
BEGIN {
  n = split("TrainSentenceShard MergeShardUpdates " \
            "GatherChunkF64 GatherChunkBf16 GatherChunkI8 " \
            "GramSchmidtQ SymmetricEigen MatMulRows MatTMulRows " \
            "MultiplyRows ScatterRows", want, " ")
}
/^[0-9a-f]+ <.*>:$/ {
  cur = ""
  in_crc = index($0, "::Crc32cSse42(") > 0
  if (in_crc) crc_seen = 1
  if (index($0, "[clone .avx2]>")) {
    for (i = 1; i <= n; i++) {
      if (index($0, "::" want[i] "(")) { cur = want[i]; seen[cur] = 1 }
    }
  }
  next
}
cur != "" && /v(mul|add)pd[ \t].*%ymm/ { packed[cur]++ }
in_crc && /[ \t]crc32q[ \t]/ { crc32q++ }
END {
  bad = 0
  if (!crc_seen) {
    printf "FAIL %-20s no body found\n", "Crc32cSse42"; bad = 1
  } else if (crc32q == 0) {
    printf "FAIL %-20s no 64-bit crc32q\n", "Crc32cSse42"; bad = 1
  } else {
    printf "ok   %-20s %d crc32q\n", "Crc32cSse42", crc32q
  }
  for (i = 1; i <= n; i++) {
    f = want[i]
    if (!seen[f]) {
      printf "FAIL %-20s no [clone .avx2] body found\n", f; bad = 1
    } else if (packed[f] == 0) {
      printf "FAIL %-20s avx2 clone has no packed ymm vmulpd/vaddpd\n", f
      bad = 1
    } else {
      printf "ok   %-20s avx2 clone: %d packed ymm vmulpd/vaddpd\n", f, packed[f]
    }
  }
  exit bad
}'
