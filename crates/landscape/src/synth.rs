//! Procedural raster synthesis — the landscape generators behind the
//! workload corpus.
//!
//! Real burn campaigns run over heterogeneous landscapes: fuel mosaics,
//! rolling relief, terrain-channelled wind. The corresponding GIS layers are
//! not shippable with a reproduction, so this module generates them
//! *procedurally*: every generator is a pure function of its parameters and
//! a `u64` seed, so a named workload reproduces bit-identically on every
//! machine. No RNG dependency is used — determinism comes from an explicit
//! SplitMix64-style hash over `(seed, cell)`.
//!
//! Three families of generators cover the layers `firelib::Terrain` accepts:
//!
//! * [`noise_field`] — smooth fractal value noise in `[0, 1]`, the substrate
//!   for wind-speed modulation and relief;
//! * [`voronoi_mosaic`] — seeded nearest-site patches, the substrate for
//!   categorical fuel mosaics;
//! * [`slope_aspect_from_elevation`] — central-difference slope/aspect
//!   layers derived from an elevation raster, so relief enters the spread
//!   model the same way a DEM would.

use crate::geometry::normalize_azimuth;
use crate::grid::Grid;

/// SplitMix64 finaliser: one well-mixed 64-bit value per input. Public so
/// every seeded generator in the stack derives from the same hash.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic uniform sample in `[0, 1)` for a `(seed, x, y)` lattice
/// point — the corner value of the value-noise lattice.
#[inline]
fn lattice(seed: u64, x: i64, y: i64) -> f64 {
    let h =
        mix(seed ^ mix(x as u64).wrapping_add(mix((y as u64).wrapping_mul(0x5851F42D4C957F2D))));
    // 53 mantissa bits → exact dyadic rational in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Quintic smoothstep (Perlin's fade curve): C² continuous interpolation.
#[inline]
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// One octave of bilinear value noise at lattice `scale` (cells per lattice
/// step).
fn value_noise_at(seed: u64, row: f64, col: f64, scale: f64) -> f64 {
    let x = col / scale;
    let y = row / scale;
    let (x0, y0) = (x.floor(), y.floor());
    let (fx, fy) = (fade(x - x0), fade(y - y0));
    let (xi, yi) = (x0 as i64, y0 as i64);
    let v00 = lattice(seed, xi, yi);
    let v10 = lattice(seed, xi + 1, yi);
    let v01 = lattice(seed, xi, yi + 1);
    let v11 = lattice(seed, xi + 1, yi + 1);
    let top = v00 + (v10 - v00) * fx;
    let bot = v01 + (v11 - v01) * fx;
    top + (bot - top) * fy
}

/// A smooth fractal (fBm) noise field in `[0, 1]`.
///
/// `scale` is the feature size of the base octave in cells; each further
/// octave halves the feature size and the amplitude. The field is
/// renormalised to `[0, 1]` after summation.
///
/// # Panics
/// Panics when `scale` is not positive or `octaves` is zero.
pub fn noise_field(rows: usize, cols: usize, scale: f64, octaves: u32, seed: u64) -> Grid<f64> {
    assert!(scale > 0.0, "noise scale must be positive");
    assert!(octaves > 0, "need at least one octave");
    let mut norm = 0.0;
    let mut amp = 1.0;
    for _ in 0..octaves {
        norm += amp;
        amp *= 0.5;
    }
    Grid::from_fn(rows, cols, |r, c| {
        let mut v = 0.0;
        let mut amp = 1.0;
        let mut s = scale;
        for o in 0..octaves {
            v += amp * value_noise_at(seed.wrapping_add(o as u64), r as f64, c as f64, s);
            amp *= 0.5;
            s = (s * 0.5).max(1.0);
        }
        v / norm
    })
}

/// The seeded site list behind [`voronoi_mosaic`]: `sites` points scattered
/// over the raster as `(row, col, code)`, site `i` carrying
/// `codes[i % codes.len()]`. Public so an outside checker can hold the
/// mosaic against its own nearest-site scan.
///
/// # Panics
/// Panics when `codes` is empty or `sites` is zero.
pub fn mosaic_sites(
    rows: usize,
    cols: usize,
    sites: usize,
    codes: &[u8],
    seed: u64,
) -> Vec<(f64, f64, u8)> {
    assert!(!codes.is_empty(), "mosaic needs at least one code");
    assert!(sites > 0, "mosaic needs at least one site");
    (0..sites)
        .map(|i| {
            let r = lattice(seed ^ 0xA076_1D64_78BD_642F, i as i64, 0) * rows as f64;
            let c = lattice(seed ^ 0xE703_7ED1_A0B4_28DB, i as i64, 1) * cols as f64;
            (r, c, codes[i % codes.len()])
        })
        .collect()
}

/// Squared distance from cell `(r, c)` to the site at `(sr, sc)` — the one
/// expression every nearest-site decision (and its test oracle) compares.
#[inline]
fn site_distance(r: usize, c: usize, sr: f64, sc: f64) -> f64 {
    (r as f64 - sr) * (r as f64 - sr) + (c as f64 - sc) * (c as f64 - sc)
}

/// A categorical Voronoi mosaic: `sites` random cells are scattered over
/// the raster and every cell takes the code of its nearest site (ties go
/// to the lowest site index), cycling through `codes`. Produces the blobby
/// fuel patchworks of real vegetation maps.
///
/// # Panics
/// Panics when `codes` is empty or `sites` is zero.
pub fn voronoi_mosaic(rows: usize, cols: usize, sites: usize, codes: &[u8], seed: u64) -> Grid<u8> {
    nearest_site_codes(rows, cols, &mosaic_sites(rows, cols, sites, codes, seed))
}

/// The code of the nearest site for every cell, by a uniform-bucket
/// search: sites are binned into square buckets of `side` cells (about
/// two sites per bucket), and a cell scans the block of buckets within
/// `k` rings of its own, growing `k` until the best squared distance found
/// is strictly below the squared distance to the nearest block edge that
/// still has raster behind it. Every unscanned site lies beyond such an
/// edge, so its [`site_distance`] is at least that bound (the bound is an
/// integer, and rounding is monotone), and it can neither win nor tie:
/// the result is exactly the argmin over all sites, lowest index first.
fn nearest_site_codes(rows: usize, cols: usize, sites: &[(f64, f64, u8)]) -> Grid<u8> {
    let side = ((2.0 * (rows * cols) as f64 / sites.len() as f64).sqrt() as usize).max(1);
    let (brows, bcols) = (rows.div_ceil(side), cols.div_ceil(side));
    // A coordinate is binned by its integer part, so "bucket row ≥ n" is
    // exactly "sr ≥ n·side"; `lattice · rows` can round up to `rows`
    // itself, hence the clamp into the last bucket.
    let bucket_of = |sr: f64, sc: f64| -> usize {
        let br = (sr as usize).min(rows - 1) / side;
        let bc = (sc as usize).min(cols - 1) / side;
        br * bcols + bc
    };
    // Counting sort into bucket order; ascending site index within a bucket.
    let mut start = vec![0u32; brows * bcols + 1];
    for &(sr, sc, _) in sites {
        start[bucket_of(sr, sc) + 1] += 1;
    }
    for b in 0..brows * bcols {
        start[b + 1] += start[b];
    }
    let mut cursor = start.clone();
    let mut binned = vec![(0.0f64, 0.0f64, 0u32); sites.len()];
    for (i, &(sr, sc, _)) in sites.iter().enumerate() {
        let slot = &mut cursor[bucket_of(sr, sc)];
        binned[*slot as usize] = (sr, sc, i as u32);
        *slot += 1;
    }

    Grid::from_fn(rows, cols, |r, c| {
        let (br, bc) = (r / side, c / side);
        // Best squared distance so far and the site holding it.
        let mut best = (f64::INFINITY, u32::MAX);
        // Scans bucket columns `lo..=hi` of bucket row `brow` (contiguous
        // in bucket order).
        let scan = |best: &mut (f64, u32), brow: usize, lo: usize, hi: usize| {
            let span = start[brow * bcols + lo] as usize..start[brow * bcols + hi + 1] as usize;
            for &(sr, sc, i) in &binned[span] {
                let d = site_distance(r, c, sr, sc);
                if d < best.0 || (d == best.0 && i < best.1) {
                    *best = (d, i);
                }
            }
        };
        let mut k = 0usize;
        loop {
            let (r_lo, r_hi) = (br.saturating_sub(k), (br + k).min(brows - 1));
            let (c_lo, c_hi) = (bc.saturating_sub(k), (bc + k).min(bcols - 1));
            // Ring `k` is the block's new border: its top and bottom bucket
            // rows in full, and the two end columns of the rows between.
            if k == 0 {
                scan(&mut best, br, bc, bc);
            } else {
                if br >= k {
                    scan(&mut best, br - k, c_lo, c_hi);
                }
                if br + k < brows {
                    scan(&mut best, br + k, c_lo, c_hi);
                }
                for brow in (br + 1).saturating_sub(k)..=(br + k - 1).min(r_hi) {
                    if bc >= k {
                        scan(&mut best, brow, bc - k, bc - k);
                    }
                    if bc + k < bcols {
                        scan(&mut best, brow, bc + k, bc + k);
                    }
                }
            }
            // Distance from the cell to each block edge with raster (and
            // therefore possibly sites) beyond it.
            let mut bound = usize::MAX;
            if r_lo > 0 {
                bound = bound.min(r - r_lo * side);
            }
            if r_hi + 1 < brows {
                bound = bound.min((r_hi + 1) * side - r);
            }
            if c_lo > 0 {
                bound = bound.min(c - c_lo * side);
            }
            if c_hi + 1 < bcols {
                bound = bound.min((c_hi + 1) * side - c);
            }
            if bound == usize::MAX || best.0 < (bound as f64) * (bound as f64) {
                break;
            }
            k += 1;
        }
        sites[best.1 as usize].2
    })
}

/// Slope (degrees) and aspect (degrees clockwise from north, the downslope
/// direction) derived from an elevation raster by central differences — the
/// standard DEM → slope/aspect transform.
///
/// `cell_size` must be in the same length unit as the elevation values.
/// Slope is clamped below 90°; flat cells get aspect 0 (any value works:
/// with zero slope the aspect never influences spread).
///
/// # Panics
/// Panics when `cell_size` is not positive.
pub fn slope_aspect_from_elevation(
    elevation: &Grid<f64>,
    cell_size: f64,
) -> (Grid<f64>, Grid<f64>) {
    assert!(cell_size > 0.0, "cell size must be positive");
    let (rows, cols) = elevation.shape();
    let at = |r: isize, c: isize| -> f64 {
        let r = r.clamp(0, rows as isize - 1) as usize;
        let c = c.clamp(0, cols as isize - 1) as usize;
        elevation.at(r, c)
    };
    let mut slope = Grid::filled(rows, cols, 0.0f64);
    let mut aspect = Grid::filled(rows, cols, 0.0f64);
    for r in 0..rows {
        for c in 0..cols {
            let (ri, ci) = (r as isize, c as isize);
            // dz/dx: west → east; dz/dy: north → south (rows grow southward).
            let dzdx = (at(ri, ci + 1) - at(ri, ci - 1)) / (2.0 * cell_size);
            let dzdy = (at(ri + 1, ci) - at(ri - 1, ci)) / (2.0 * cell_size);
            let grad = (dzdx * dzdx + dzdy * dzdy).sqrt();
            let deg = grad.atan().to_degrees().min(89.9);
            slope.set(r, c, deg);
            if grad > 1e-12 {
                // Downslope direction: negative gradient. atan2(east, north).
                let az = (-dzdx).atan2(dzdy).to_degrees();
                aspect.set(r, c, normalize_azimuth(az));
            }
        }
    }
    (slope, aspect)
}

/// Rescales a `[0, 1]` field linearly onto `[lo, hi]`.
pub fn rescale(field: &Grid<f64>, lo: f64, hi: f64) -> Grid<f64> {
    field.map(|&v| lo + v * (hi - lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_per_seed() {
        let a = noise_field(16, 24, 6.0, 3, 42);
        let b = noise_field(16, 24, 6.0, 3, 42);
        let c = noise_field(16, 24, 6.0, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_values_in_unit_interval() {
        let g = noise_field(32, 32, 8.0, 4, 7);
        assert!(g.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn noise_is_smooth() {
        // Neighbouring cells of a single 16-cell octave differ by far less
        // than the full range.
        let g = noise_field(32, 32, 16.0, 1, 3);
        for r in 0..32 {
            for c in 1..32 {
                assert!(
                    (g.at(r, c) - g.at(r, c - 1)).abs() < 0.25,
                    "jump at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn mosaic_uses_only_given_codes_and_all_of_them() {
        let codes = [1u8, 4, 10];
        let g = voronoi_mosaic(48, 48, 24, &codes, 5);
        let mut seen = std::collections::BTreeSet::new();
        for &v in g.as_slice() {
            assert!(codes.contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), codes.len(), "every code should appear");
    }

    #[test]
    fn mosaic_deterministic_per_seed() {
        let a = voronoi_mosaic(20, 20, 9, &[1, 2], 11);
        let b = voronoi_mosaic(20, 20, 9, &[1, 2], 11);
        assert_eq!(a, b);
    }

    /// The oracle: every cell against every site, first strict minimum
    /// wins — the loop `voronoi_mosaic` ran before the bucket search.
    fn nearest_site_codes_brute(rows: usize, cols: usize, sites: &[(f64, f64, u8)]) -> Grid<u8> {
        Grid::from_fn(rows, cols, |r, c| {
            let mut best = f64::INFINITY;
            let mut code = sites[0].2;
            for &(sr, sc, sk) in sites {
                let d = (r as f64 - sr) * (r as f64 - sr) + (c as f64 - sc) * (c as f64 - sc);
                if d < best {
                    best = d;
                    code = sk;
                }
            }
            code
        })
    }

    #[test]
    fn bucketed_mosaic_matches_brute_force_on_random_shapes() {
        // Site codes are the site index (mod 251), so a wrong winner among
        // near-equidistant sites cannot hide behind a shared code.
        let codes: Vec<u8> = (0..251).collect();
        let mut h = 0x5EED_u64;
        let mut next = |span: usize| {
            h = mix(h);
            (h % span as u64) as usize
        };
        let mut shapes = vec![
            (1, 97, 5),
            (113, 1, 7),
            (1, 1, 3),
            (3, 4, 40), // more sites than cells
            (17, 23, 1),
            (64, 48, 2000),
        ];
        for _ in 0..40 {
            shapes.push((1 + next(70), 1 + next(70), 1 + next(120)));
        }
        for (i, &(rows, cols, sites)) in shapes.iter().enumerate() {
            let codes = &codes[..1 + next(codes.len())];
            let list = mosaic_sites(rows, cols, sites, codes, i as u64);
            assert_eq!(
                nearest_site_codes(rows, cols, &list),
                nearest_site_codes_brute(rows, cols, &list),
                "{rows}x{cols}, {sites} sites, {} codes",
                codes.len()
            );
        }
    }

    #[test]
    fn ties_go_to_the_lowest_site_index() {
        // Coincident sites: the first of each pile must win everywhere.
        let piled = [
            (3.0, 4.0, 9u8),
            (3.0, 4.0, 1),
            (10.5, 2.25, 7),
            (10.5, 2.25, 2),
            (3.0, 4.0, 3),
        ];
        let g = nearest_site_codes(14, 9, &piled);
        assert_eq!(g, nearest_site_codes_brute(14, 9, &piled));
        assert!(g.as_slice().iter().all(|&k| k == 9 || k == 7));

        // Sites on integer coordinates in different buckets: every cell of
        // column 20 is exactly equidistant from (r, 10) and (r, 30), and the
        // lower index sits in the *farther-scanned* bucket half the time.
        let mut lattice_sites = Vec::new();
        for (i, r) in (0..40).step_by(8).enumerate() {
            let (a, b) = ((r as f64, 10.0), (r as f64, 30.0));
            let (first, second) = if i % 2 == 0 { (a, b) } else { (b, a) };
            lattice_sites.push((first.0, first.1, (2 * i) as u8));
            lattice_sites.push((second.0, second.1, (2 * i + 1) as u8));
        }
        let g = nearest_site_codes(40, 41, &lattice_sites);
        assert_eq!(g, nearest_site_codes_brute(40, 41, &lattice_sites));
        for (i, r) in (0..40).step_by(8).enumerate() {
            assert_eq!(
                g.at(r, 20),
                (2 * i) as u8,
                "row {r}: tie must go to the lower index"
            );
        }
    }

    #[test]
    fn flat_elevation_gives_zero_slope() {
        let elev = Grid::filled(8, 8, 100.0);
        let (slope, _) = slope_aspect_from_elevation(&elev, 50.0);
        assert!(slope.as_slice().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn east_dipping_plane_faces_east() {
        // Elevation falls towards the east: downslope (aspect) is 90°.
        let elev = Grid::from_fn(8, 8, |_, c| -(c as f64) * 10.0);
        let (slope, aspect) = slope_aspect_from_elevation(&elev, 10.0);
        let s = slope.at(4, 4);
        assert!((s - 45.0).abs() < 1e-9, "slope {s}");
        assert!((aspect.at(4, 4) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn south_dipping_plane_faces_south() {
        // Elevation falls with increasing row (southward): aspect 180°.
        let elev = Grid::from_fn(8, 8, |r, _| -(r as f64) * 5.0);
        let (_, aspect) = slope_aspect_from_elevation(&elev, 10.0);
        assert!((aspect.at(4, 4) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn slope_below_ninety() {
        let elev = Grid::from_fn(8, 8, |_, c| (c as f64) * 1e6);
        let (slope, _) = slope_aspect_from_elevation(&elev, 1.0);
        assert!(slope.as_slice().iter().all(|&s| s < 90.0));
    }

    #[test]
    fn rescale_maps_bounds() {
        let g = Grid::from_vec(1, 3, vec![0.0, 0.5, 1.0]);
        let r = rescale(&g, 2.0, 4.0);
        assert_eq!(r.as_slice(), &[2.0, 3.0, 4.0]);
    }
}
