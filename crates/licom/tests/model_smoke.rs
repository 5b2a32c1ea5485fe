//! Full-model integration smoke tests: the assembled LICOMK++ steps
//! stably, identically across execution spaces, and reproducibly.
#![allow(clippy::field_reassign_with_default)]

use licom::model::{choose_dims, Model, ModelOptions};
// re-export check
use mpi_sim::World;
use ocean_grid::{Bathymetry, Resolution};

fn small_config() -> ocean_grid::ModelConfig {
    // ~800-km effective grid, 6 levels: tiny but exercises every kernel.
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

#[test]
fn model_steps_without_nan_single_rank() {
    let cfg = small_config();
    World::run(1, |comm| {
        let mut m = Model::new(
            comm,
            cfg.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        m.run_steps(5);
        assert!(!m.state.has_nan(), "NaN after 5 steps");
        let d = m.diagnostics();
        assert!(
            d.max_speed.is_finite() && d.max_speed < 10.0,
            "max speed {}",
            d.max_speed
        );
        assert!(d.mean_sst > -5.0 && d.mean_sst < 35.0, "SST {}", d.mean_sst);
        assert!(d.kinetic_energy >= 0.0);
    });
}

#[test]
fn model_develops_circulation_from_rest() {
    let cfg = small_config();
    World::run(1, |comm| {
        let mut m = Model::new(
            comm,
            cfg.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        let ke0 = m.diagnostics().kinetic_energy;
        m.run_steps(10);
        let ke1 = m.diagnostics().kinetic_energy;
        assert!(ke1 > ke0, "wind forcing must spin up flow: {ke0} -> {ke1}");
    });
}

#[test]
fn serial_and_threads_are_bitwise_identical() {
    let cfg = small_config();
    let sums: Vec<u64> = ["serial", "threads"]
        .iter()
        .map(|name| {
            World::run(1, |comm| {
                let mut m = Model::new(
                    comm,
                    cfg.clone(),
                    kokkos_rs::Space::from_name(name).unwrap(),
                    ModelOptions::default(),
                );
                m.run_steps(3);
                m.checksum()
            })
            .pop()
            .unwrap()
        })
        .collect();
    assert_eq!(sums[0], sums[1], "Serial vs Threads diverged");
}

#[test]
fn multi_rank_matches_single_rank() {
    let cfg = small_config();
    let single = World::run(1, |comm| {
        let mut m = Model::new(
            comm,
            cfg.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        m.run_steps(3);
        let d = m.diagnostics();
        (m.global_heat_content(), d.kinetic_energy)
    })
    .pop()
    .unwrap();
    // 45 columns: px must divide 45 → px=3.
    let multi = World::run(3, |comm| {
        let mut m = Model::new(
            comm,
            cfg.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        m.run_steps(3);
        m.global_heat_content()
    })
    .pop()
    .unwrap();
    let rel = (single.0 - multi).abs() / single.0.abs();
    assert!(rel < 1e-12, "heat content differs: {} vs {multi}", single.0);
}

/// The Fig. 4 balancer is the ablation's library function, not a way to
/// step: on 2×2 ranks whose wet-column counts differ, after two steps,
/// `balanced_cross_rank` — shipping columns between ranks — leaves on every
/// owned wet column the bits of the local closure, the body the new level's
/// column pass runs, evaluated column by column into the test's own views.
#[test]
fn cross_rank_balancing_reproduces_the_local_closure() {
    use kokkos_rs::{View, View3};
    use licom::lanes::F64x;
    // 90×57×6: nx divides over two columns of ranks.
    let cfg = Resolution::Coarse100km.config().scaled_down(4, 6);
    let sent = World::run(4, |comm| {
        let space = kokkos_rs::Space::serial();
        let mut m = Model::new(comm, cfg.clone(), space, ModelOptions::default());
        m.run_steps(2);
        let (st, g, c) = (&m.state, &m.grid, m.state.cur());
        let (t, s) = (st.t.cur(), st.s.cur());
        let rho: View3<f64> = View::from_fn("rho", t.dims(), |[k, j, i]| {
            licom::eos::density(F64x([t.at(k, j, i)]), F64x([s.at(k, j, i)])).0[0]
        });
        let fields = licom::canuto::CanutoFields {
            u: st.u[c].clone(),
            v: st.v[c].clone(),
            kmt: g.kmt.clone(),
            z_t: g.z_t.clone(),
            nz: g.nz,
        };
        let coefficients = |name: &str| -> [View3<f64>; 2] {
            let d3w = [g.nz + 1, g.pj, g.pi];
            [
                View::host(&format!("km {name}"), d3w),
                View::host(&format!("kh {name}"), d3w),
            ]
        };
        let (local, balanced) = (coefficients("local"), coefficients("balanced"));
        let wet = &g.wet.cols_own.indices;
        fields.evaluate(&rho, wet, g.pi, [&local[0], &local[1]]);
        let report = licom::canuto::balanced_cross_rank(
            comm,
            &fields,
            &rho,
            [&balanced[0], &balanced[1]],
            wet,
            g.pi,
        );
        for &col in wet.iter() {
            let (jl, il) = (col as usize / g.pi, col as usize % g.pi);
            for k in 0..=g.nz {
                for (name, local, balanced) in [
                    ("km", &local[0], &balanced[0]),
                    ("kh", &local[1], &balanced[1]),
                ] {
                    assert_eq!(
                        local.at(k, jl, il).to_bits(),
                        balanced.at(k, jl, il).to_bits(),
                        "rank {}: {name} at ({k}, {jl}, {il})",
                        comm.rank()
                    );
                }
            }
        }
        report.columns_sent
    });
    assert!(
        sent.iter().sum::<usize>() > 0,
        "no rank shipped a column: {sent:?}"
    );
}

/// One 2-rank step under a recording tool: depth 0 is exactly `PHASES`, in
/// order, once each, and every carried exchange is on the wire first in the
/// row that posts it and last no later than the row that lands it.
#[test]
fn the_step_is_its_table() {
    use halo_exchange::HaloField;
    use kokkos_rs::profiling as hooks;
    use licom::{Carry, PHASES};
    use mpi_sim::{CommEvent, CommEventKind};
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};

    /// A region pushed (`Some`) or popped, or a message's tag sent or received.
    enum Ev {
        Region(Option<&'static str>),
        Wire(u64),
    }
    #[derive(Default)]
    struct Rec(Mutex<Vec<(ThreadId, Ev)>>);
    impl Rec {
        fn log(&self, ev: Ev) -> usize {
            let mut log = self.0.lock().unwrap();
            log.push((thread::current().id(), ev));
            log.len()
        }
    }
    impl hooks::ProfilingHooks for Rec {
        fn push_region(&self, name: &'static str) {
            self.log(Ev::Region(Some(name)));
        }
        fn pop_region(&self, _: &'static str) {
            self.log(Ev::Region(None));
        }
    }
    impl mpi_sim::CommTap for Rec {
        fn on_event(&self, ev: &CommEvent) {
            if matches!(ev.kind, CommEventKind::Send | CommEventKind::Recv) {
                self.log(Ev::Wire(ev.tag));
            }
        }
    }

    let _serial = hooks::test_registry_lock();
    let rec = Arc::new(Rec::default());
    // The tool and the tap are process-wide, so events of tests running
    // beside this one are sorted out by thread below.
    hooks::set_hooks(rec.clone());
    mpi_sim::set_tap(rec.clone());
    let cfg = Resolution::Eddy10km.config().scaled_down(60, 6);
    let spans = World::run(2, |comm| {
        let space = kokkos_rs::Space::serial();
        let mut m = Model::new(comm, cfg.clone(), space, ModelOptions::default());
        m.run_steps(1);
        let from = rec.log(Ev::Region(None));
        m.step();
        (thread::current().id(), from..rec.log(Ev::Region(None)) - 1)
    });
    mpi_sim::clear_tap();
    hooks::clear_hooks();

    let log = rec.0.lock().unwrap();
    let carries = [Carry::NewLevel, Carry::Asselin];
    for (rank, (tid, span)) in spans.into_iter().enumerate() {
        let (mut depth, mut rows) = (0, Vec::new());
        // Per carry: the rows of its first and its last message on the wire.
        let mut wire = [None::<(usize, usize)>; 2];
        for (_, ev) in log[span].iter().filter(|(t, _)| *t == tid) {
            match *ev {
                Ev::Region(Some(name)) => {
                    rows.extend((depth == 0).then_some(name));
                    depth += 1;
                }
                Ev::Region(None) => depth -= 1,
                Ev::Wire(tag) => {
                    assert!(depth > 0, "rank {rank}: tag {tag} outside every phase");
                    // One tag an exchange: the 3-D field offset.
                    let ours = |c: &&Carry| tag == c.tag_base() + kokkos_rs::View3::<f64>::TAG;
                    if let Some(c) = carries.iter().find(ours) {
                        let row = rows.len() - 1;
                        wire[*c as usize] = Some((wire[*c as usize].map_or(row, |w| w.0), row));
                    }
                }
            }
        }
        assert_eq!(rows, PHASES.each_ref().map(|p| p.name), "rank {rank}");
        for carry in carries {
            let (first, last) = wire[carry as usize].expect("never on the wire");
            let posts = PHASES.iter().position(|p| p.posts == Some(carry));
            let lands = PHASES.iter().position(|p| p.lands.contains(&carry));
            assert_eq!(Some(first), posts, "rank {rank}: {carry:?} begun elsewhere");
            assert!(
                Some(last) <= lands,
                "rank {rank}: {carry:?} lands in row {last}"
            );
        }
    }
}

/// Launches in a step on the halo grid (60×38×6) after the first, forward
/// one — literals, so a launch that is added or lost shows. Of them, the
/// 40 barotropic substeps take one `FunctorBtSubstep` launch each on one
/// rank, where every route is a self route, and five (interior and four
/// rim strips) on two, where the exchange is in flight. The new level is
/// finished by one velocity and one tracer column pass, and the guard
/// folds their per-column maxima without a launch (102 → 93 and 258 → 249
/// when nine launches — two leapfrogs, the friction solve, the mode
/// correction, the z pass, two diffusion launches, the mixing solve, the
/// restore and the guard's two scans, less the two passes — went). The old
/// level is read by one column pass over the owned columns and its ring
/// twin over the halo columns (93 → 92 and 249 → 248 when the EOS, the
/// pressure integral and the canuto launch went). Tracer advection x → y
/// is the interior's row wavefront, between two boundary x launches and two
/// rim y launches, and its intermediate a band whose exchange moves no
/// east/west strip: the dense x, interior y and two rims (4) and the four
/// strip packs and unpacks of both intermediate fields (8) became five
/// launches (92 → 85 and 248 → 241). The tracer column pass diagnoses
/// `w` from the current velocity level itself (85 → 84 and 241 → 240 when
/// the continuity launch went). The velocity and the tracer column pass
/// are one pass over the wet T columns, which runs the canuto closure too
/// (84 → 83 and 240 → 239). The momentum tendency is one pass over the wet
/// velocity columns that integrates its corners' pressure and adds the wind
/// stress and the depth mean: the old level's pass over the owned and the
/// halo columns, the interior and the rim tendency launches, the wind
/// stress and the depth mean (6) became one (83 → 78 and 239 → 234). Both
/// `overlap` settings launch the same.
/// A fall is a one-literal change that says why.
#[test]
fn a_step_launches_its_literal_count() {
    let cfg = Resolution::Eddy10km.config().scaled_down(60, 6);
    for (ranks, want) in [(1, 78), (2, 234)] {
        for overlap in [true, false] {
            let launches = World::run(ranks, |comm| {
                let space = kokkos_rs::Space::device_sim();
                let kokkos_rs::Space::DeviceSim(device) = &space else {
                    unreachable!("a DeviceSim space")
                };
                let mut opts = ModelOptions::default();
                opts.overlap = overlap;
                let mut m = Model::new(comm, cfg.clone(), space.clone(), opts);
                m.run_steps(1);
                let before = device.launches();
                m.step();
                device.launches() - before
            });
            assert_eq!(
                launches,
                vec![want; ranks],
                "{ranks} rank(s), overlap {overlap}"
            );
        }
    }
}

#[test]
fn steady_state_step_is_pool_allocation_free() {
    let cfg = small_config();
    // World-total pool misses after n steps: per-rank pools make these
    // deterministic, so "steady state allocates nothing" is exactly
    // "more steps don't raise the count".
    let allocs = |steps: usize| {
        let (_, t) = World::run_traced(3, |comm| {
            let mut m = Model::new(
                comm,
                cfg.clone(),
                kokkos_rs::Space::serial(),
                ModelOptions::default(),
            );
            m.run_steps(steps);
        });
        t.pool_allocations
    };
    assert_eq!(
        allocs(3),
        allocs(8),
        "steps beyond spin-up must not allocate message buffers"
    );

    // The per-step delta, measured in-run: after spin-up a barrier-bracketed
    // step performs zero pool allocations (every message is a reuse).
    World::run(3, |comm| {
        use mpi_sim::ReduceOp;
        let mut m = Model::new(
            comm,
            cfg.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        m.run_steps(3); // spin-up: warm the per-rank pools
        comm.allreduce_f64(0.0, ReduceOp::Sum); // barrier
        let before = comm.traffic().pool_allocations;
        m.step();
        comm.allreduce_f64(0.0, ReduceOp::Sum); // barrier
        let after = comm.traffic().pool_allocations;
        assert_eq!(
            after,
            before,
            "post-spin-up step allocated {} message buffers",
            after - before
        );
        // The model's own counters saw the traffic.
        assert!(m.timers.count("pool_reuses") > 0);
        assert!(m.timers.count("halo_msgs") > 0);
    });
}

/// The barotropic work levels are dead once a window ends: the next window
/// re-initialises every `bt_eta` / `bt_u` / `bt_v` level over the full
/// block before reading it, and no ghost a window leaves behind is read —
/// its last substep ships the window sums, not its `[n]` level. NaN in
/// every level, ghosts included, between steps must not move the checksum
/// 3 steps later, on 1 rank (self routes) or 2 (messages).
#[test]
fn barotropic_levels_are_dead_after_the_window() {
    // 60x36x6: nx divides over two ranks.
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 6);
    for ranks in [1, 2] {
        let run = |scribble: bool| {
            World::run(ranks, |comm| {
                let space = kokkos_rs::Space::serial();
                let mut m = Model::new(comm, cfg.clone(), space, ModelOptions::default());
                for _ in 0..4 {
                    m.run_steps(1);
                    let s = &m.state;
                    for level in s.bt_eta.iter().chain(&s.bt_u).chain(&s.bt_v) {
                        if scribble {
                            level.fill(f64::NAN);
                        }
                    }
                }
                m.checksum()
            })
        };
        assert_eq!(run(true), run(false), "{ranks} rank(s)");
    }
}

#[test]
fn basin_configuration_runs() {
    let mut cfg = small_config();
    cfg.nx = 36;
    cfg.ny = 24;
    let mut opts = ModelOptions::default();
    opts.bathymetry = Bathymetry::Basin {
        lon0: 30.0,
        lon1: 330.0,
        lat0: -40.0,
        lat1: 55.0,
        depth: 4000.0,
    };
    World::run(1, |comm| {
        let mut m = Model::new(comm, cfg.clone(), kokkos_rs::Space::serial(), opts.clone());
        m.run_steps(5);
        assert!(!m.state.has_nan());
    });
}

#[test]
fn choose_dims_respects_fold_constraint() {
    assert_eq!(choose_dims(1, 45), (1, 1));
    let (px, py) = choose_dims(6, 36);
    assert_eq!(px * py, 6);
    assert_eq!(36 % px, 0);
    let (px, _) = choose_dims(4, 360);
    assert_eq!(360 % px, 0);
}

#[test]
fn polar_filter_engages_when_cap_is_cfl_tight() {
    // At /2 scale the tripolar cap rows are narrower than the barotropic
    // CFL bound for dt_b = 120 s, so the zonal filter must arm; at /8
    // scale the rows are wide enough that it stays off.
    let tight = Resolution::Coarse100km.config().scaled_down(2, 5);
    World::run(1, |comm| {
        let m = Model::new(
            comm,
            tight.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        assert!(m.polar_filter_passes() > 0, "filter should arm at /2 scale");
    });
    let loose = Resolution::Coarse100km.config().scaled_down(8, 5);
    World::run(1, |comm| {
        let m = Model::new(
            comm,
            loose.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        assert_eq!(
            m.polar_filter_passes(),
            0,
            "filter should stay off at /8 scale"
        );
    });
}

/// No benchmark grid arms the polar filter, so nothing else pins the path
/// where a substep's `[n]` level is filtered before it joins the window
/// sums — one substep later, inside the next substep's kernel. The /2-scale
/// grid arms it; each rank's checksum after 3 steps is a literal, on 1 rank
/// (self routes: the substep runs whole) and on 2 (messages: the interior /
/// rim split).
#[test]
fn polar_filtered_window_is_pinned() {
    let cfg = Resolution::Coarse100km.config().scaled_down(2, 5);
    let (one, two) = (
        [0xc68a_bbc0_1116_3fd7u64],
        [0x9ff6_f70c_a13a_9238, 0xe555_c58c_b36f_4152],
    );
    for (ranks, want) in [(1, &one[..]), (2, &two[..])] {
        let sums = World::run(ranks, |comm| {
            let space = kokkos_rs::Space::serial();
            let mut m = Model::new(comm, cfg.clone(), space, ModelOptions::default());
            assert!(m.polar_filter_passes() > 0, "the filter must arm at /2");
            m.run_steps(3);
            m.checksum()
        });
        assert_eq!(sums, want, "{ranks} rank(s)");
    }
}

#[test]
fn viscosity_adapts_to_resolution() {
    // Coarser grid → larger adaptive Laplacian viscosity.
    let coarse = Resolution::Coarse100km.config().scaled_down(8, 5);
    let fine = Resolution::Coarse100km.config().scaled_down(4, 5);
    let vc = World::run(1, |comm| {
        Model::new(
            comm,
            coarse.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        )
        .viscosity()
    })
    .pop()
    .unwrap();
    let vf = World::run(1, |comm| {
        Model::new(
            comm,
            fine.clone(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        )
        .viscosity()
    })
    .pop()
    .unwrap();
    assert!(vc > vf, "coarse {vc} vs fine {vf}");
}
