//! SIMD helpers for CPE kernels.
//!
//! SW26010 Pro CPEs have 512-bit vector units (8 × f64). The paper uses
//! SIMD both inside numerical kernels and — notably — to accelerate the
//! functor-registry *matching* process in the enhanced Kokkos runtime
//! (§V-B: "single-instruction, multiple-data (SIMD) vectorization, for
//! accelerated kernel matching").
//!
//! [`find_u64`] is that matching scan, written over exact 8-wide chunks so
//! the compiler can emit real vector compares on the host.

/// Vector width in `f64` lanes on SW26010 Pro.
pub const F64_LANES: usize = 8;

/// SIMD-style linear scan for `needle` in `haystack`, comparing 8 ids per
/// step — the paper's trick for accelerating registry lookup on CPEs.
/// Returns the first matching index.
pub fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
    let mut chunks = haystack.chunks_exact(F64_LANES);
    let mut base = 0;
    for c in &mut chunks {
        // One vector compare; any-lane-hit then resolved within the chunk.
        let mut hit = false;
        for &v in c {
            hit |= v == needle;
        }
        if hit {
            for (i, &v) in c.iter().enumerate() {
                if v == needle {
                    return Some(base + i);
                }
            }
        }
        base += F64_LANES;
    }
    chunks
        .remainder()
        .iter()
        .position(|&v| v == needle)
        .map(|i| base + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_u64_locates_first_occurrence() {
        let v: Vec<u64> = (0..100).map(|i| i * 3).collect();
        assert_eq!(find_u64(&v, 27), Some(9));
        assert_eq!(find_u64(&v, 28), None);
        // duplicate: first index wins
        let dup = vec![5, 7, 7, 9];
        assert_eq!(find_u64(&dup, 7), Some(1));
    }

    #[test]
    fn find_u64_handles_tail() {
        let v = vec![1u64, 2, 3];
        assert_eq!(find_u64(&v, 3), Some(2));
        assert_eq!(find_u64(&[], 1), None);
    }
}
