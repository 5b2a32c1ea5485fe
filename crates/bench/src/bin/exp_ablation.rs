//! Ablation — each optimization of §V, measured on the real model, plus
//! the full-scale optimized-vs-original projection (§VII-C: 2.7× at
//! 2 km, 3.9× at 1 km on Sunway).
//!
//! Measured locally (wall-clock of the real mini-model / simulated-Sunway
//! cycle counts):
//!
//! 1. **canuto load balancing** (Fig. 4): the wet-column imbalance across
//!    ranks that the cross-rank balancer sees and removes;
//! 2. **3-D halo transposes** (Fig. 5): one 30-level exchange on the halo
//!    engine under the horizontal-major and the transpose buffer order,
//!    identical ghosts, message volume unchanged;
//! 3. **batched pack/unpack**: one exchange of `[T, S]` against two
//!    one-field exchanges, message count and bytes;
//! 4. **communication overlap**: the model's step with every posted
//!    exchange carried under the kernels that follow vs finished where it
//!    is posted — the same kernels and the same messages, only the waits
//!    move.

use bench::banner;
use halo_exchange::{FoldKind, Halo2D, Halo3D, Strategy3D};
use kokkos_rs::{View, View3};
use licom::lanes::F64x;
use licom::model::{Model, ModelOptions};
use mpi_sim::{CartComm, World};
use ocean_grid::Resolution;
use perf_model::{project, Machine, ProblemSpec, SunwayVariant};

fn timed(
    cfg: &ocean_grid::ModelConfig,
    ranks: usize,
    opts: ModelOptions,
    steps: usize,
) -> (f64, u64, u64) {
    let cfg = cfg.clone();
    let out = World::run_traced(ranks, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), kokkos_rs::Space::serial(), opts.clone());
        m.run_steps(2);
        let t0 = std::time::Instant::now();
        m.run_steps(steps);
        (t0.elapsed().as_secs_f64(), m.checksum())
    });
    let (results, traffic) = out;
    let wall = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    (wall, results[0].1, traffic.p2p_messages)
}

/// Exchange `fields` 30-level tracers on a 4-rank 2 × 2 engine, `reps`
/// times, batched into one message per peer or field by field:
/// slowest rank's wall, world messages and bytes, rank 0's ghost checksum.
fn exchanged(
    strategy: Strategy3D,
    fields: usize,
    batched: bool,
    reps: usize,
) -> (f64, u64, u64, u64) {
    let (results, traffic) = World::run_traced(4, move |comm| {
        let cart = CartComm::new(comm.clone(), 2, 2, true);
        let halo = Halo3D::new(Halo2D::new(&cart, 48, 32), 30, strategy);
        let views: Vec<View3<f64>> = (0..fields)
            .map(|f| {
                let v: View3<f64> = View::host("q", halo.shape());
                let owned: Vec<f64> = (0..v.len())
                    .map(|i| (1 + f + comm.rank()) as f64 + 1e-3 * i as f64)
                    .collect();
                v.copy_from_slice(&owned);
                v
            })
            .collect();
        let batch: Vec<_> = views.iter().map(|v| (v, FoldKind::Scalar)).collect();
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            if batched {
                halo.exchange_many(&batch, 0);
            } else {
                for (i, one) in batch.iter().enumerate() {
                    halo.exchange_many(std::slice::from_ref(one), 20 * i as u64);
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let sum = views
            .iter()
            .flat_map(|v| v.to_vec())
            .fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits());
        (wall, sum)
    });
    let wall = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    (wall, traffic.p2p_messages, traffic.p2p_bytes, results[0].1)
}

fn main() {
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 10);
    let steps = 6;

    banner("Ablation 1 (Fig. 4): canuto load balancing across MPI ranks");
    // The paper's Fig. 4: ranks at sea-land boundaries hold very
    // different ocean-column counts. The cross-rank balancer ships
    // surplus columns' (N², S²) inputs to under-loaded ranks. We run a
    // 6-rank world on the Earth-like planet and report the imbalance the
    // balancer sees and removes — with bitwise-identical coefficients.
    {
        let cfg = cfg.clone();
        let reports = World::run(6, move |comm| {
            let opts = ModelOptions::default();
            let m = Model::new(comm, cfg.clone(), kokkos_rs::Space::serial(), opts);
            let c = m.state.cur();
            // Density is no model field: the old level's column pass keeps
            // it in work rows. The balancer reads it from a view.
            let (t, s) = (m.state.t.cur(), m.state.s.cur());
            let rho: View3<f64> = View::from_fn("rho", t.dims(), |[k, j, i]| {
                licom::eos::density(F64x([t.at(k, j, i)]), F64x([s.at(k, j, i)])).0[0]
            });
            let fields = licom::canuto::CanutoFields {
                u: m.state.u[c].clone(),
                v: m.state.v[c].clone(),
                kmt: m.grid.kmt.clone(),
                z_t: m.grid.z_t.clone(),
                nz: m.grid.nz,
            };
            // Nor are the coefficients: the new level's column pass keeps
            // them in work rows. The balancer leaves them in these.
            let d3w = [m.grid.nz + 1, m.grid.pj, m.grid.pi];
            let (km, kh): (View3<f64>, View3<f64>) = (View::host("km", d3w), View::host("kh", d3w));
            let wet = &m.grid.wet.cols_own.indices;
            licom::canuto::balanced_cross_rank(comm, &fields, &rho, [&km, &kh], wet, m.grid.pi)
        });
        println!(
            "{:>6} {:>14} {:>10} {:>10}",
            "rank", "wet columns", "sent", "received"
        );
        for (r, rep) in reports.iter().enumerate() {
            println!(
                "{:>6} {:>14} {:>10} {:>10}",
                r, rep.local_columns, rep.columns_sent, rep.columns_received
            );
        }
        println!(
            "wet-column imbalance (max/mean): {:.2} before -> {:.2} after balancing",
            reports[0].imbalance_before, reports[0].imbalance_after
        );
    }

    banner("Ablation 2 (Fig. 5): 3-D halo strategy");
    let reps = 50;
    for strategy in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
        let (wall, msgs, _, checksum) = exchanged(strategy, 1, true, reps);
        println!(
            "{strategy:?}: {:.3} s / {reps} exchanges of 30 levels, {msgs} messages, ghost checksum {checksum:x}",
            wall
        );
    }
    println!("(bitwise-identical ghosts; the transpose pays off on strided-DMA");
    println!(" hardware — see the Criterion bench `halo` and the projection below)");

    banner("Ablation 3: batched multi-field halo messages");
    for batched in [false, true] {
        let (wall, msgs, bytes, checksum) = exchanged(Strategy3D::Transpose, 2, batched, 1);
        println!(
            "[T, S] batched={batched}: {msgs} messages, {bytes} bytes, {:.6} s, ghost checksum {checksum:x}",
            wall
        );
    }

    banner("Ablation 4: communication/computation overlap");
    for overlap in [false, true] {
        let opts = ModelOptions {
            overlap,
            ..ModelOptions::default()
        };
        let (wall, checksum, msgs) = timed(&cfg, 4, opts, steps);
        println!(
            "overlap={overlap}: {:.3} s, {msgs} messages, checksum {checksum:x}",
            wall
        );
    }

    banner("Full-scale projection: optimized vs original (paper 2.7x / 3.9x)");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "config", "Sunway CGs", "optimized", "original", "speedup", "paper"
    );
    for (res, devices, paper) in [
        (Resolution::Km2FullDepth, 576_000usize, 2.7),
        (Resolution::Km1, 590_250, 3.9),
    ] {
        let spec = ProblemSpec::from_config(&res.config());
        let m = Machine::sunway_cg();
        let opt = project(&spec, &m, devices, SunwayVariant::Optimized);
        let orig = project(&spec, &m, devices, SunwayVariant::Original);
        println!(
            "{:<12} {:>12} {:>11.3} SYPD {:>11.3} SYPD {:>9.2}x {:>9.1}x",
            res.config().name,
            devices,
            opt.sypd,
            orig.sypd,
            opt.sypd / orig.sypd,
            paper
        );
        println!(
            "{:<12} original-time breakdown: serial pack {:.1}%, compute {:.1}%, network {:.1}%",
            "",
            100.0 * orig.t_serial / orig.t_step,
            100.0 * (orig.t_compute3d + orig.t_compute2d) / orig.t_step,
            100.0 * (orig.t_net_bw + orig.t_net_lat) / orig.t_step
        );
    }
}
