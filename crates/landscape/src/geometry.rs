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
pub fn normalize_azimuth(deg: f64) -> f64 {
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
}
