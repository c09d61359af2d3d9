//! The 8-neighbour stencil and azimuth normalisation.

/// `(d_row, d_col, distance_factor)` for the 8-neighbour stencil,
/// clockwise from North (grid north = decreasing row index; azimuths are
/// degrees clockwise from North, the paper's `WindDir`/`Aspect`
/// convention). Kept as a flat table so the fire simulator's inner loop is
/// a simple array walk.
pub const NEIGHBOUR_OFFSETS: [(isize, isize, f64); 8] = [
    (-1, 0, 1.0),
    (-1, 1, std::f64::consts::SQRT_2),
    (0, 1, 1.0),
    (1, 1, std::f64::consts::SQRT_2),
    (1, 0, 1.0),
    (1, -1, std::f64::consts::SQRT_2),
    (0, -1, 1.0),
    (-1, -1, std::f64::consts::SQRT_2),
];

/// Normalises an azimuth in degrees to `[0, 360)`.
///
/// `deg % 360.0` followed by one `+ 360` for a negative remainder. `%`
/// compiles to a software `fmod` call, so the three ranges that spread
/// math produces (an azimuth already in range, one offset below zero, one
/// shifted past 360) take the same result by a single subtraction or
/// addition: within one turn of the range, `%` returns `deg` or `deg −
/// 360` exactly (Sterbenz), and the fast path applies the same `+ 360`.
/// `−360` itself stays on the `%` path, which gives it `−0.0`.
#[inline]
pub fn normalize_azimuth(deg: f64) -> f64 {
    if (0.0..360.0).contains(&deg) {
        return deg;
    }
    if deg > -360.0 && deg < 0.0 {
        return deg + 360.0;
    }
    if (360.0..720.0).contains(&deg) {
        return deg - 360.0;
    }
    let r = deg % 360.0;
    if r < 0.0 {
        r + 360.0
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_handles_negatives_and_wraps() {
        assert_eq!(normalize_azimuth(-90.0), 270.0);
        assert_eq!(normalize_azimuth(725.0), 5.0);
        assert_eq!(normalize_azimuth(360.0), 0.0);
    }

    /// The definition the fast paths shortcut.
    fn by_remainder(deg: f64) -> f64 {
        let r = deg % 360.0;
        if r < 0.0 {
            r + 360.0
        } else {
            r
        }
    }

    fn assert_same_bits(deg: f64) {
        assert_eq!(
            normalize_azimuth(deg).to_bits(),
            by_remainder(deg).to_bits(),
            "{deg:e} ({:#018x})",
            deg.to_bits()
        );
    }

    #[test]
    fn fast_paths_match_the_remainder_bit_for_bit() {
        // The range edges and their neighbours on both sides, the values
        // `%` treats specially, and subnormals (whose `+ 360` rounds).
        let edges = [0.0, 360.0, 720.0, 1080.0]
            .into_iter()
            .flat_map(|e| [e, -e])
            .flat_map(|e: f64| [e, e.next_up(), e.next_down()]);
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
        ];
        edges.chain(special).for_each(assert_same_bits);

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA21);
        for _ in 0..100_000 {
            assert_same_bits(rng.random_range(-2000.0..2000.0));
        }
    }
}
