#!/usr/bin/env bash
# One iteration shape per masked kernel, one schedule per step.
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
#      `Functor3D` impl.
#
# The step is written once (`licom::PHASES`) and `ModelOptions::overlap`
# only says where a posted exchange is finished. This script also fails if
# the fork grows back:
#
#   3. `overlap` is read more than once in crates/licom/src (the poster);
#   4. a phase timer starts or stops outside the runner: more than four
#      `timers.start(` / `timers.stop(` call sites under
#      crates/licom/src/model* (the runner's pair and `daily_loop`'s).
#
# Recovery is one state image and one step-vote-commit loop
# (`licom::checkpoint`). This script also fails if a copy grows back:
#
#   5. more than two non-comment `try_step()` call sites under
#      crates/licom/src (`Model::step` and the commit loop), other than
#      exactly one `const MAGIC` there (one on-disk format), or a blocking
#      collective (`allreduce_f64(`, `.allgather(`, `.barrier(`) in
#      checkpoint.rs or elastic.rs — every wait of the recovery path is the
#      deadline-bounded vote.
#
# `ModelOptions` keeps only knobs someone turns, and the docs name only what
# exists. This script also fails if:
#
#   6. the drift detector or the reporting nothing called comes back (its
#      names are in rule 1's list), or so does a second exchange round, the
#      barotropic window's ghost debt, or a per-substep Asselin or pair
#      launch beside the one substep kernel, or a per-pattern launch
#      payload, CPE trampoline, retiler or registration function beside
#      kokkos-rs's one generic launch and trampoline (likewise);
#   7. a `- `module`:` bullet under a `### crates/<name>` heading of
#      DESIGN.md names no crates/<name>/src/<module>.rs or <module>/.
#
# A metric set is declared once: `mpi_sim::stats` lists its counters in one
# macro invocation that generates the structs, `snapshot`, `fields` and
# `delta`, and bumps any of them through one `Traffic::add`; `licom::Timers`
# is plain owned maps; `kokkos_profiling::prometheus` has one family
# renderer. So rule 1's list also holds the sharded `CounterTable`,
# `TimerStat`, the `_labeled` renderers that left the public surface and
# the single-counter `Traffic::record_*` methods: a second hand-written copy
# of a declaration must not grow back beside the one.
#
# Every `mpi-sim` collective is one deadline-bounded, rank-ordered allgather
# over the mailbox (`Comm::gather`). Rule 1's list also holds the world slot
# table whose arrival and departure waits had no deadline (`CollectiveState`,
# `CollInner`, `coll_dead`), the views' root gather + broadcast
# (`view_allgather`), the `SubComm` / `subcomm` third copy, and the public
# surface nothing outside its own tests called (`broadcast`,
# `allreduce_vec_f64`, `allreduce_usize_sum`, `try_allreduce_f64`,
# `try_barrier`, `LivenessView`, `liveness`, `peer_epoch`, `sendrecv`,
# `irecv`, `RecvReq`, `isend`): a second collective engine, or an unbounded
# wait, must not grow back beside the one.
#
# The new level is finished in two column passes (`licom::columns`): the
# velocity pass runs the leapfrog, the friction solve and the barotropic
# mode correction over the wet velocity columns, the tracer pass the
# vertical advection, the diffusion, the mixing solve and the surface
# restore over the wet tracer columns, and the guard folds the per-column
# maxima both leave behind. Rule 1's list also holds the launches the two
# passes replaced — the dense leapfrog (`FunctorLeapfrog3D`,
# `kernel_leapfrog_3d`), the mode correction (`FunctorBtCorrect`,
# `kernel_bt_correct`), the surface restore (`FunctorSurfaceRestore`,
# `kernel_surface_restore`), the stand-alone solves and their team twin
# (`FunctorVmixImplicit`, `FunctorVmixTeam`, `kernel_vmix_implicit_pair`,
# `kernel_vmix_team`, `launch_vmix`, `solve_block`), the separate z pass
# (`FunctorAdvectZ`, `kernel_advect_z`), the separate diffusion
# (`FunctorTracerHDiff`, `kernel_tracer_hdiff`) with the interior / rim
# cell lists only it read (`cells3_own_interior`, `cells3_own_rim`), and
# the guard's velocity scan (`FunctorGuardMaxAbs`, `kernel_guard_max_abs`)
# with the cell list only it read (`ucells3_own`): a second copy of either
# chain, or a separate launch of one of its members, must not grow back
# beside the pass.
#
# The old level was read once, by one column pass (density into work rows,
# the pressure integral, the canuto closure) over the owned wet columns,
# and the same body with the closure off over the halo ring. Rule 1's list
# also holds the three
# launches it replaced — the EOS and its stored density (`FunctorEos`,
# `kernel_eos`), the pressure integral (`FunctorPressure`,
# `kernel_pressure`), the closure's own launch (`FunctorCanutoCols`,
# `kernel_canuto_cols`) and their launcher (`compute_density_pressure`) —
# and the option that ran the closure a second, panicking way inside the
# step (`CanutoMode`, `canuto_mode`; the Fig. 4 balancer stays a library
# function the ablation calls). It also holds public names nothing called
# (`flight_ring`, `flight_world`, `kernel_ids_assigned`). The frozen
# referee's `tracer.rs` names `FunctorEos` once, as a sample kernel name
# in a test of its layer table; that one line is let through.
#
# A dense launch has one rank: a 2-D kernel is a `Functor3D` launched over
# a one-level `MDRangePolicy3` (`[1, ny, nx]`), and a `RowKernel` reaches it
# through the one `row_functor!` impl. Every launch shape goes through
# `parallel::launch` and the one `registry::tramp`, and a reduction is a
# list launch. Each launch shape costs the Athread backend a registration
# macro, a kind and a tile body, so rule 1's list also holds the rank-2 shape (`MDRangePolicy2`,
# `Functor2D`, `ReduceFunctor2D`, `FunctorTriple2D`, `parallel_for_2d`,
# `parallel_reduce_2d`, `register_for_2d`, `register_reduce_2d`, `For2D`,
# `Reduce2D`, `MDRange2`, `row_kernel_2d`), the 1-D reduction nothing
# launched (`ReduceFunctor1D`, `parallel_reduce_1d`, `register_reduce_1d`,
# `Reduce1D`), the dense 3-D reduction that only the land-masked
# diagnostics launched (`ReduceFunctor3D`, `parallel_reduce_3d`,
# `register_reduce_3d`, `Reduce3D`, and the four dense reducers
# `ReduceKineticEnergy`, `ReduceTracerTotal`, `ReduceMaxAbs`,
# `ReduceSstArea` with the `kmu_as_kmt` alias they read), the team
# launch's own trampoline (`tramp_team`) and public names nothing called
# (`lookup_simd_hit_index`, `umask`, `View4`): a second dense rank, a
# dense masked reduction or a second CPE trampoline must not grow back
# beside the one.
#
# A column pass has one launch shape: the list over its wet columns, its
# work rows the functor's local arrays (§V-C2). Rule 1's list also holds the
# team launch that ran the same bodies over every owned column, land
# included, with its work rows in per-worker scratch and, on SwAthread, an
# LDM buffer (`TeamPolicy`, `FunctorTeam`, `parallel_for_team`,
# `register_team`, `KernelKind::Team`, `PolicyKind::Team`, the option that
# chose it and its launcher, `vmix_team` and `launch_columns`, its column
# walker `run_team_column`, its registrations `kernel_velocity_columns_team`
# and `kernel_tracer_columns_team`, and the scratch it threaded through
# every launch, `scratch_len`); sunway-sim's data-holding LDM buffer only
# that launch allocated (`LdmBuf`, `alloc_ctx`; every launch reserves its
# staging); and kokkos-rs's process-global PCIe counters and the space
# query nothing read (`record_h2d`, `record_d2h`, `TransferStats`,
# `transfer_stats`, `reset_transfer_stats`, `unified_with_host`; the
# deep-copy profiling hook hands the tool both spaces and the bytes). A
# second launch shape of a column pass, or scratch plumbed through the one
# launch path, must not grow back.
#
# An instrument has one consumer slot: `kokkos_rs::profiling` delivers to
# the one process-global tool (`set_hooks`), and every `licom::Model` owns
# its flight ring. Rule 1's list also holds the per-instance hook registry
# no run registered into (`InstanceKey`, `next_instance_key`,
# `register_instance_hooks`, `unregister_instance_hooks`, `enter_instance`,
# `InstanceScope`, `current_instance`, `attach_instance`,
# `detach_instance`), sunway-sim's second double buffer that no kernel ran
# (`stream_tiles`, `stream_tiles_blocking` and the data-moving `dma_get`,
# `dma_put`, `dma_get_async`, `dma_put_async`; the SwAthread launch charges
# DMA through `DmaPipe` / `stream_single_tile`), and public functions only
# their own tests called (`gyre_strength_sv`, `evaluate_buffer`,
# `is_done`, `world_size`, `death_epoch`, `land_ranks`, `halo_cells`,
# `area_t`, `top_imbalanced`). Rule 1 also fails on a `flight` field of
# `ModelOptions` (declared, set or read): the recorder has no off switch.
#
# Tracer advection's x → y is one row wavefront over the interior rows
# (`advect::FunctorAdvectWave`), its intermediate a per-thread ring, and
# only the rows within reach of a neighbour's or the fold's stencil go
# through memory, in `Workspace::adv_band` (a `halo_exchange::RowBand` of
# `RowBand::DEPTH = 3H` rows at each edge). Rule 1's list also holds
# `adv_tmp`, the two full-size `[nz, pj, pi]` intermediate fields it
# replaced: a whole-field intermediate must not grow back under that name;
# `BAND_DEPTH` and `BLOCK_ROWS`, the band depth a caller chose and the
# wavefront's 16-row tiles (a tile is now a whole interior level); and
# `kernel_advect_x` / `kernel_advect_y`, the registrations of the passes
# over a whole intermediate field, which no step launches.
#
# The state keeps what a step and a restart read. The tracer column pass
# diagnoses `w` from the current velocity level into its work rows, so
# rule 1's list also holds the launch that stored it (`FunctorDiagnoseW`,
# `kernel_diagnose_w`); and the checkpoint image has no `new` role, so it
# holds the role's field names as string literals (`"u_new"`, `"v_new"`,
# `"eta_new"`; the barotropic substep's `u_new` / `v_new` / `eta_new`
# fields are its own leapfrog levels, not image roles, and are left alone).
#
# The new level is finished in one column pass over the wet T columns
# (`licom::columns::FunctorNewLevelColumns`): per block, the canuto closure
# into two work rows, the velocity chain on the `km` row (masked by `kmu`)
# and the tracer chain on the `kh` row, and one exchange of the four new
# fields. So rule 1's list also holds the two passes it replaced
# (`FunctorVelocityColumns`, `FunctorTracerColumns`, their registrations
# `kernel_velocity_columns`, `kernel_tracer_columns`), the two exchanges they
# posted (`Carry::Uv`, `Carry::Ts`) and the stored coefficients no pass
# reads any more (the `State` fields `km` / `kh`, as `st.km`, `state.kh`
# and the like): a coefficient field, or a second pass over the new level,
# must not grow back. It also holds sunway-sim's DMA formula that only its
# own tests read (`dma_transfer_cycles`: bandwidth shared by the *active*
# CPEs, where every launch is charged by `CpeCtx::dma_async_model` at the
# whole group's share).
#
# The momentum tendency is one list launch over the owned wet velocity
# columns (`licom::baroclinic::FunctorMomentumColumns`): a tile walks its
# columns level by level, integrates its corners' hydrostatic pressure from
# `T` / `S` into work rows, adds the wind stress on the top level and sums
# the depth means on the way, and no exchange is in flight while it runs.
# So rule 1's list also holds the launches it replaced — the old level's
# pass (`FunctorDensityColumns`, `kernel_density_columns`) with the halo
# columns only it read (`cols_halo`), the tendency over 3-D velocity cells
# (`FunctorMomentumTend`, `kernel_momentum_tend`) with its interior / rim
# cell lists and their policies (`ucells3_own_interior`, `ucells3_own_rim`,
# `ucells_interior`, `ucells_rim`), the split builders and the cell walker
# nothing else called (`build_columns_split`, `build_cells_split`,
# `run_cells`), the wind stress (`FunctorWindStress`, `kernel_wind_stress`)
# and the depth mean (`FunctorDepthMean`, `kernel_depth_mean`) — and the
# stored pressure (the `State` field, as `st.pressure`, `state.pressure`
# or `s.pressure`; `backpressure` and `bt_vel_pressure_gradient` are other
# words): a stored intermediate, or a second launch over the velocity
# columns, must not grow back beside the pass.
#
#   scripts/check_one_shape.sh      (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

failed=0

# Whole identifiers.
gone='\b(active_set|CanutoMode::Rect|FunctorCanutoRect|compute_density_pressure_active|wet_columns|canuto_cols|batched_halo|halo_strategy|flight_capacity|TmpExchange|StepGraph|StepMonitor|TelemetryConfig|DriftDetector|DriftBank|RingBuffer|surface_scalars|hotspot_shares|gather_phases|flush_ghost_debt|EwPosted|NsPosted|post_ns|FunctorAsselin2D|FunctorAsselin3|FunctorBtStep|kernel_asselin_2d|kernel_asselin_3|kernel_bt_step|Payload1D|Payload2D|Payload3D|PayloadList|PayloadReduce1D|PayloadReduce2D|PayloadReduce3D|PayloadReduceList|PayloadTeam|tramp_for_1d|tramp_for_2d|tramp_for_3d|tramp_for_list|tramp_reduce_1d|tramp_reduce_2d|tramp_reduce_3d|tramp_reduce_list|sw_retile_1d|sw_retile_2d|sw_retile_3d|drive_list_tiles|host_partials|register_1d|register_2d|register_3d|register_list|insert_team|FunctorPair2D|CounterTable|TimerStat|render_named_counters_labeled|render_named_gauges_labeled|render_phase_seconds_labeled|render_traffic_labeled|record_collective_entry|record_collective_op|record_barrier|record_pool_allocation|record_pool_reuse|record_pooled_bytes|record_fault_dropped|record_fault_duplicated|record_fault_delayed|record_fault_bitflipped|record_fault_truncated|record_rank_stall|record_crc_failure|record_halo_retry|record_recv_timeout|record_rank_death|record_peer_dead_error|record_send_suppressed|CollectiveState|CollInner|coll_dead|view_allgather|SubComm|subcomm|broadcast|allreduce_vec_f64|allreduce_usize_sum|try_allreduce_f64|try_barrier|LivenessView|liveness|peer_epoch|sendrecv|irecv|RecvReq|isend|FunctorLeapfrog3D|kernel_leapfrog_3d|FunctorBtCorrect|kernel_bt_correct|FunctorSurfaceRestore|kernel_surface_restore|FunctorVmixImplicit|FunctorVmixTeam|kernel_vmix_implicit_pair|kernel_vmix_team|launch_vmix|solve_block|FunctorAdvectZ|kernel_advect_z|FunctorTracerHDiff|kernel_tracer_hdiff|cells3_own_interior|cells3_own_rim|FunctorGuardMaxAbs|kernel_guard_max_abs|ucells3_own|CanutoMode|canuto_mode|FunctorEos|FunctorPressure|FunctorCanutoCols|compute_density_pressure|kernel_eos|kernel_pressure|kernel_canuto_cols|flight_ring|flight_world|kernel_ids_assigned|MDRangePolicy2|Functor2D|ReduceFunctor2D|ReduceFunctor1D|FunctorTriple2D|parallel_for_2d|parallel_reduce_2d|parallel_reduce_1d|register_for_2d|register_reduce_2d|register_reduce_1d|For2D|Reduce2D|Reduce1D|MDRange2|row_kernel_2d|ReduceFunctor3D|parallel_reduce_3d|register_reduce_3d|Reduce3D|tramp_team|kmu_as_kmt|ReduceKineticEnergy|ReduceTracerTotal|ReduceMaxAbs|ReduceSstArea|lookup_simd_hit_index|umask|View4|InstanceKey|next_instance_key|register_instance_hooks|unregister_instance_hooks|enter_instance|InstanceScope|current_instance|attach_instance|detach_instance|stream_tiles|stream_tiles_blocking|dma_get|dma_put|dma_get_async|dma_put_async|gyre_strength_sv|evaluate_buffer|is_done|world_size|death_epoch|land_ranks|halo_cells|area_t|top_imbalanced|adv_tmp|BAND_DEPTH|BLOCK_ROWS|kernel_advect_x|kernel_advect_y|FunctorDiagnoseW|kernel_diagnose_w|TeamPolicy|FunctorTeam|parallel_for_team|register_team|KernelKind::Team|PolicyKind::Team|vmix_team|run_team_column|launch_columns|scratch_len|kernel_velocity_columns_team|kernel_tracer_columns_team|LdmBuf|alloc_ctx|record_h2d|record_d2h|TransferStats|transfer_stats|reset_transfer_stats|unified_with_host|FunctorVelocityColumns|FunctorTracerColumns|kernel_velocity_columns|kernel_tracer_columns|Carry::Uv|Carry::Ts|dma_transfer_cycles|FunctorDensityColumns|kernel_density_columns|FunctorWindStress|kernel_wind_stress|FunctorDepthMean|kernel_depth_mean|FunctorMomentumTend|kernel_momentum_tend|cols_halo|ucells3_own_interior|ucells3_own_rim|ucells_interior|ucells_rim|build_columns_split|build_cells_split|run_cells)\b|\b(st|state)\.k[mh]\b|\b(st|state|s)\.pressure\b|\bflight: (bool|true|false)\b|\.flight = |\bopts\.flight\b|"(u|v|eta)_new"'
frozen_sample='^crates/bench/src/bin/licom_bench/tracer\.rs:[0-9]+: +assert_eq!\(layer_of_kernel\("FunctorEos"\), Layer::Licom\);$'
if hits=$(git grep -nE "$gone" -- crates src tests examples ':!crates/perf-model' |
    grep -vE "$frozen_sample"); then
    echo "check_one_shape: deleted names are back:"
    echo "$hits"
    failed=1
fi

# `impl<..> Trait for Type<..>` -> "Trait Type", per licom source file.
impls=$(sed -nE 's/^impl(<[^>]*>)? +(FunctorList|Functor3D) +for +([A-Za-z0-9_]+).*/\2 \3/p' \
    crates/licom/src/*.rs | sort -u)
twins=$(comm -12 \
    <(awk '$1 == "FunctorList" { print $2 }' <<<"$impls" | sort -u) \
    <(awk '$1 != "FunctorList" { print $2 }' <<<"$impls" | sort -u))
if [ -n "$twins" ]; then
    echo "check_one_shape: both a list and a dense launch shape:"
    echo "$twins"
    failed=1
fi

# Code lines naming `overlap`, string literals (region names) and comments
# aside, less the option's declaration and its default.
reads=$(grep -rnE '\boverlap\b' crates/licom/src --include='*.rs' |
    sed -E 's/"[^"]*"//g' |
    grep -vE '^[^:]+:[0-9]+:\s*//' |
    grep -E '\boverlap\b' |
    grep -vE 'pub overlap: bool,|overlap: true,' || true)
if [ "$(grep -c . <<<"$reads")" -gt 1 ]; then
    echo "check_one_shape: \`overlap\` is read in more than one place:"
    echo "$reads"
    failed=1
fi

sites=$(grep -nE 'timers\.(start|stop)\(' crates/licom/src/model.rs crates/licom/src/model/*.rs || true)
if [ "$(grep -c . <<<"$sites")" -gt 4 ]; then
    echo "check_one_shape: a phase timer outside the runner:"
    echo "$sites"
    failed=1
fi

# Code lines only: a `//` comment (doc comments included) may name anything.
code() { grep -rnE "$1" "${@:2}" --include='*.rs' | grep -vE '^[^:]+:[0-9]+:\s*//' || true; }

steps=$(code 'try_step\(\)' crates/licom/src)
if [ "$(grep -c . <<<"$steps")" -gt 2 ]; then
    echo "check_one_shape: a second step-vote-commit loop:"
    echo "$steps"
    failed=1
fi

magics=$(code '\bconst MAGIC\b' crates/licom/src)
if [ "$(grep -c . <<<"$magics")" -ne 1 ]; then
    echo "check_one_shape: exactly one on-disk image format, found:"
    echo "$magics"
    failed=1
fi

blocking=$(code 'allreduce_f64\(|\.allgather\(|\.barrier\(' \
    crates/licom/src/checkpoint.rs crates/licom/src/elastic.rs)
if [ -n "$blocking" ]; then
    echo "check_one_shape: a blocking collective on the recovery path:"
    echo "$blocking"
    failed=1
fi

# "crate module" for each name in a bullet's leading `a`/`b`: run.
missing=$(awk '
    /^#/ { crate = "" }
    match($0, /^### crates\/[a-z-]+/) { crate = substr($0, 12, RLENGTH - 11) }
    crate != "" && match($0, /^- (`[a-z0-9_]+`\/?)+:/) {
        n = split(substr($0, 3, RLENGTH - 3), names, "/")
        for (i = 1; i <= n; i++) { gsub(/`/, "", names[i]); print crate, names[i] }
    }' DESIGN.md |
    while read -r crate module; do
        [ -e "crates/$crate/src/$module.rs" ] || [ -d "crates/$crate/src/$module" ] ||
            echo "crates/$crate: \`$module\`"
    done)
if [ -n "$missing" ]; then
    echo "check_one_shape: DESIGN.md names modules that do not exist:"
    echo "$missing"
    failed=1
fi

[ "$failed" -eq 0 ] && echo "check_one_shape: ok"
exit "$failed"
