#!/usr/bin/env bash
# Codegen guard for the explicit-lane SIMD kernels (src/common/simd.h):
# disassembles the built leva libraries and fails unless the "avx2" clone of
# every hot multi-versioned caller contains packed 256-bit arithmetic on ymm
# registers — fp32 v{mul,add,sub}ps for the SGNS trainer (TrainSentenceShard,
# MergeShardUpdates, ShardDeltas), fp64 v{mul,add}pd for the featurize
# gather, Embedding::DequantizeRow and the dense LA of MF Fit (the block
# Gram-Schmidt projection and update, its in-block MGS, the Householder
# tridiagonalization, the QL rotation pass, the dense and CSR matmul
# helpers, and the Chebyshev step of the spectral propagation) — and unless the SSE4.2 CRC32C kernel (Crc32cSse42,
# src/common/io.cc) contains the 64-bit crc32q instruction.
# A kernel that silently falls back to scalar code inside the clone (or to
# the wrong precision), or a CRC kernel that falls back to bytewise or table
# code, still passes every value test, so only the instructions themselves
# show the regression.
#
# It also fails if any guarded avx2 clone contains a fused multiply-add
# (vfmadd/vfmsub/vfnmadd/vfnmsub): the kernels' bit-exactness contract rounds
# every mul and add separately, and a clone compiled with fma enabled would
# contract them and change the bits.
#
# And it fails if any guarded avx2 clone stores a lane group in 16-byte
# halves — a vmovups/vmovupd/vmovdqu of an xmm register to memory, or a
# vextractf128 of a ymm upper half to memory. The kernels re-read the rows
# they just wrote with 32-byte loads, and a load that spans two 16-byte
# stores cannot be forwarded from them: every such store is a
# store-forwarding stall on the next pass over the row.
#
# It fails if the quantized-tier clones (GatherChunkBf16, GatherChunkI8,
# Embedding::DequantizeRow) contain a vinsertf128: each bf16 or int8 lane
# group must widen to fp64 with one ymm-destination convert, not two xmm
# converts joined by an insert. And it fails if a guarded avx2 clone calls a
# simd.h kernel out of line (the call would run baseline-ISA code), or if
# TrainSentenceShard calls AliasTable::Sample out of line: the five negative
# draws of every skip-gram pair are meant to be inline.
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

objdump -dr -C --no-show-raw-insn "${libs[@]}" | awk '
BEGIN {
  n = split("TrainSentenceShard MergeShardUpdates ShardDeltas " \
            "GatherChunkF64 GatherChunkBf16 GatherChunkI8 DequantizeRow " \
            "BlockProject BlockUpdate PanelMgs Tridiagonalize TridiagonalQl " \
            "MatMulRows MatTMulRows " \
            "MultiplyRows ScatterRows ChebyshevStepRows", want, " ")
  # The SGNS trainer trains on fp32 rows; everything else is fp64.
  split("TrainSentenceShard MergeShardUpdates ShardDeltas", f32, " ")
  for (i in f32) is_f32[f32[i]] = 1
  split("GatherChunkBf16 GatherChunkI8 DequantizeRow", quant, " ")
  for (i in quant) is_quant[quant[i]] = 1
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
cur != "" && is_f32[cur] && /v(mul|add|sub)ps[ \t].*%ymm/ { packed[cur]++ }
cur != "" && !is_f32[cur] && /v(mul|add)pd[ \t].*%ymm/ { packed[cur]++ }
cur != "" && /[ \t]vf(n)?m(add|sub)/ { fma[cur]++ }
# Vector stores to a row: an unaligned move (GCC lowers the memcpy of a
# lane group to vmovups/vmovupd, or to vmovdqu) or an upper-half extract,
# with a memory destination that is not the stack (register spills around
# calls are xmm moves to (%rsp)).
cur != "" && /[ \t](vmovup[sd]|vmovdqu)[ \t]+%ymm[0-9]+,[^%]/ { full[cur]++ }
cur != "" && !/\(%rsp/ && /[ \t](vmovup[sd]|vmovdqu)[ \t]+%xmm[0-9]+,[^%]/ {
  half[cur]++
}
cur != "" && /[ \t]vextract[fi]128[ \t]+\$0x1,%ymm[0-9]+,[^%]/ { half[cur]++ }
cur != "" && is_quant[cur] && /[ \t]vinsertf128[ \t]/ { insert[cur]++ }
# Relocations of the calls a clone makes (objdump -r): a lane kernel, or
# the negative sampler in the SGNS kernel, that did not inline.
cur != "" && /R_X86_64_(PLT|PC)32/ && /leva::simd::/ { outline[cur]++ }
cur == "TrainSentenceShard" && /R_X86_64_(PLT|PC)32/ && /AliasTable::Sample/ {
  outline[cur]++
}
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
    ops = is_f32[f] ? "vmulps/vaddps/vsubps" : "vmulpd/vaddpd"
    if (!seen[f]) {
      printf "FAIL %-20s no [clone .avx2] body found\n", f; bad = 1
    } else if (fma[f] > 0) {
      printf "FAIL %-20s avx2 clone has %d fused multiply-add(s)\n", f, fma[f]
      bad = 1
    } else if (half[f] > 0) {
      printf "FAIL %-20s avx2 clone has %d 16-byte vector store(s)\n", f, half[f]
      bad = 1
    } else if (insert[f] > 0) {
      printf "FAIL %-20s avx2 clone widens with %d vinsertf128(s)\n", f, insert[f]
      bad = 1
    } else if (outline[f] > 0) {
      printf "FAIL %-20s avx2 clone makes %d out-of-line kernel call(s)\n", f,
             outline[f]
      bad = 1
    } else if (packed[f] == 0) {
      printf "FAIL %-20s avx2 clone has no packed ymm %s\n", f, ops
      bad = 1
    } else {
      printf "ok   %-20s avx2 clone: %d packed ymm %s, %d ymm stores\n", f,
             packed[f], ops, full[f]
    }
  }
  exit bad
}'
