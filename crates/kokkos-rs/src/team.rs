//! Hierarchical (team) parallelism with per-team scratch memory.
//!
//! Kokkos' `TeamPolicy` gives each league member a scratch pad that maps
//! to shared memory on GPUs and to **LDM on the Sunway backend** — the
//! abstraction the paper's architecture-specific kernels (§V-C2) lean on:
//! "developers can optimize memory latency by using LDM … by defining and
//! using local arrays within the functor".
//!
//! Our simplified model: a league of `league_size` teams, each invoked
//! once with a zeroed `f64` scratch slice of the requested length. A team
//! launch is one more policy ([`TeamPolicy`], one member a tile) of the one
//! launch path: on `Serial`/`Threads`/`DeviceSim` each host worker keeps
//! one heap buffer; on `SwAthread` the one trampoline takes each CPE's
//! buffer **from its 256 kB LDM** for the launch, so a kernel whose scratch
//! demand exceeds LDM fails exactly as it would on hardware (see the
//! `ldm_overflow` test).

use crate::functor::{For, IterCost, TileBody};
use crate::policy::TeamPolicy;
use crate::space::Space;

/// A team kernel: invoked once per league rank with its scratch pad.
pub trait FunctorTeam: Sync {
    fn operator(&self, league_rank: usize, scratch: &mut [f64]);

    fn cost(&self) -> IterCost {
        IterCost::default()
    }
}

impl<F: FunctorTeam> TileBody<TeamPolicy, For> for F {
    #[inline]
    fn tile(&self, _: &TeamPolicy, league: usize, _: &mut f64, scratch: &mut [f64]) {
        scratch.fill(0.0);
        self.operator(league, scratch);
    }
    fn tile_cost(&self) -> IterCost {
        self.cost()
    }
}

/// Register a team functor for the `SwAthread` backend
/// (`KOKKOS_REGISTER_TEAM` analogue); see [`crate::register_for_1d!`].
#[macro_export]
macro_rules! register_team {
    ($name:ident, $f:ty) => {
        $crate::__register!($name, $f, TeamPolicy, For);
    };
}

/// Launch a team kernel on `space`.
pub fn parallel_for_team<F: FunctorTeam + 'static>(space: &Space, policy: TeamPolicy, f: &F) {
    crate::parallel::launch::<F, _, For>(space, &policy, f, crate::Reducer::Sum);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{View, View1, View2};
    use sunway_sim::CgConfig;

    /// Per-column running mean through team scratch: scratch holds the
    /// column copy (the LDM-staging pattern of §V-C2).
    struct ColumnSmooth {
        input: View2<f64>,
        output: View2<f64>,
        len: usize,
    }
    impl FunctorTeam for ColumnSmooth {
        #[allow(clippy::needless_range_loop)]
        fn operator(&self, league: usize, scratch: &mut [f64]) {
            for k in 0..self.len {
                scratch[k] = self.input.at(league, k);
            }
            for k in 0..self.len {
                let lo = k.saturating_sub(1);
                let hi = (k + 1).min(self.len - 1);
                let mut s = 0.0;
                for item in scratch.iter().take(hi + 1).skip(lo) {
                    s += item;
                }
                self.output.set_at(league, k, s / (hi - lo + 1) as f64);
            }
        }
    }
    crate::register_team!(column_smooth, ColumnSmooth);

    fn all_spaces() -> Vec<Space> {
        vec![
            Space::serial(),
            Space::threads(),
            Space::device_sim(),
            Space::sw_athread_with(CgConfig::test_small()),
        ]
    }

    #[test]
    fn team_kernel_identical_on_all_backends() {
        column_smooth();
        let (cols, len) = (37, 21);
        let mut reference: Option<Vec<f64>> = None;
        for space in all_spaces() {
            let input: View2<f64> =
                View::from_fn("in", [cols, len], |[c, k]| ((c * 13 + k * 7) as f64).sin());
            let output: View2<f64> = View::host("out", [cols, len]);
            let f = ColumnSmooth {
                input,
                output: output.clone(),
                len,
            };
            parallel_for_team(&space, TeamPolicy::new(cols, len), &f);
            let got = output.to_vec();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(r, &got, "{} diverged", space.name()),
            }
        }
    }

    struct ScratchIsolation {
        out: View1<f64>,
    }
    impl FunctorTeam for ScratchIsolation {
        fn operator(&self, league: usize, scratch: &mut [f64]) {
            // Scratch must arrive zeroed — any leakage from another team
            // would show up here.
            assert!(scratch.iter().all(|&x| x == 0.0), "dirty scratch");
            scratch[0] = league as f64 + 1.0;
            self.out.set_at(league, scratch[0]);
        }
    }
    crate::register_team!(scratch_isolation, ScratchIsolation);

    #[test]
    fn scratch_is_private_and_zeroed() {
        scratch_isolation();
        for space in all_spaces() {
            let out: View1<f64> = View::host("o", [50]);
            let f = ScratchIsolation { out: out.clone() };
            parallel_for_team(&space, TeamPolicy::new(50, 16), &f);
            for league in 0..50 {
                assert_eq!(out.at(league), league as f64 + 1.0);
            }
        }
    }

    struct Greedy;
    impl FunctorTeam for Greedy {
        fn operator(&self, _league: usize, _scratch: &mut [f64]) {}
    }
    crate::register_team!(greedy_team, Greedy);

    #[test]
    #[should_panic(expected = "does not fit in LDM")]
    fn ldm_overflow_fails_like_hardware() {
        greedy_team();
        let space = Space::sw_athread_with(CgConfig::test_small()); // 16 kB LDM
                                                                    // 4096 f64 = 32 kB > 16 kB test LDM.
        parallel_for_team(&space, TeamPolicy::new(4, 4096), &Greedy);
    }

    #[test]
    #[should_panic(expected = "add `register_team!(<name>,")]
    fn unregistered_team_functor_names_its_macro() {
        struct Unregistered;
        impl FunctorTeam for Unregistered {
            fn operator(&self, _league: usize, _scratch: &mut [f64]) {}
        }
        let space = Space::sw_athread_with(CgConfig::test_small());
        parallel_for_team(&space, TeamPolicy::new(2, 1), &Unregistered);
    }

    #[test]
    fn huge_scratch_is_fine_on_host_backends() {
        greedy_team();
        parallel_for_team(&Space::serial(), TeamPolicy::new(2, 1 << 20), &Greedy);
        parallel_for_team(&Space::threads(), TeamPolicy::new(2, 1 << 20), &Greedy);
    }
}
