//! Equation of state.
//!
//! The reproduction uses a linearised seawater EOS,
//! `ρ = ρ0 (1 − α(T−T0) + β(S−S0))`, which preserves what the dynamics
//! need — buoyancy gradients driven by temperature and salinity — without
//! the 25-term UNESCO polynomial (a fidelity, not performance, detail).
//! Density is no stored field, nor is the hydrostatic pressure integrated
//! from it: the momentum pass
//! ([`crate::baroclinic::FunctorMomentumColumns`]) works out both for its
//! corners' T cells one level at a time in work rows, and the new level's
//! column pass ([`crate::columns::FunctorNewLevelColumns`]) computes density
//! into work rows again for the canuto closure.

use ocean_grid::RHO0;

use crate::constants::{ALPHA_T, BETA_S, S_REF, T_REF};
use crate::lanes::F64x;

/// Density of the `W` cells of temperature `t` and salinity `s`.
#[inline(always)]
pub fn density<const W: usize>(t: F64x<W>, s: F64x<W>) -> F64x<W> {
    RHO0 * (1.0 - ALPHA_T * (t - T_REF) + BETA_S * (s - S_REF))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rho(t: f64, s: f64) -> f64 {
        density(F64x([t]), F64x([s])).0[0]
    }

    #[test]
    fn reference_state_has_reference_density() {
        assert_eq!(rho(T_REF, S_REF), RHO0);
    }

    #[test]
    fn warm_water_is_lighter_salty_water_heavier() {
        assert!(rho(T_REF + 5.0, S_REF) < RHO0);
        assert!(rho(T_REF, S_REF + 1.0) > RHO0);
    }

    /// Lane by lane the scalar formula, bit for bit.
    #[test]
    fn a_block_is_its_cells() {
        let t = F64x::<4>([-1.5, 4.0, 17.25, 29.0]);
        let s = F64x::<4>([33.0, 34.7, 35.1, 36.9]);
        let block = density(t, s);
        for l in 0..4 {
            let want = RHO0 * (1.0 - ALPHA_T * (t.0[l] - T_REF) + BETA_S * (s.0[l] - S_REF));
            assert_eq!(block.0[l].to_bits(), want.to_bits(), "lane {l}");
        }
    }
}
