#!/usr/bin/env bash
# One iteration shape per masked kernel.
#
# The packed wet list is how the model iterates: a masked kernel is one
# struct that implements `FunctorList`, and the option, the twin functor and
# the per-rank index copies that used to select or feed a dense sibling are
# gone. This script fails if one of them grows back:
#
#   1. any of the deleted names reappears under crates/ src/ tests/ examples/
#      (`perf_model::WorkloadSpec::wet_columns()` is the census' column count,
#      not the deleted `LocalGrid` list, and is left alone);
#   2. a type in crates/licom/src carries both a `FunctorList` impl and a
#      `Functor2D` / `Functor3D` impl.
#
#   scripts/check_one_shape.sh      (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

failed=0

# Whole identifiers: `kernel_canuto_cols` registers the surviving list functor.
gone='\b(active_set|CanutoMode::Rect|FunctorCanutoRect|compute_density_pressure_active|wet_columns|canuto_cols)\b'
if hits=$(git grep -nE "$gone" -- crates src tests examples ':!crates/perf-model'); then
    echo "check_one_shape: deleted names are back:"
    echo "$hits"
    failed=1
fi

# `impl<..> Trait for Type<..>` -> "Trait Type", per licom source file.
impls=$(sed -nE 's/^impl(<[^>]*>)? +(FunctorList|Functor2D|Functor3D) +for +([A-Za-z0-9_]+).*/\2 \3/p' \
    crates/licom/src/*.rs | sort -u)
twins=$(comm -12 \
    <(awk '$1 == "FunctorList" { print $2 }' <<<"$impls" | sort -u) \
    <(awk '$1 != "FunctorList" { print $2 }' <<<"$impls" | sort -u))
if [ -n "$twins" ]; then
    echo "check_one_shape: both a list and a dense launch shape:"
    echo "$twins"
    failed=1
fi

[ "$failed" -eq 0 ] && echo "check_one_shape: ok"
exit "$failed"
