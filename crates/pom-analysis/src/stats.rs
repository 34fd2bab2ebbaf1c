//! Small statistics toolbox: moments and least-squares regression.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (0 for fewer than two samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Result of a least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R² ∈ [0, 1]` (1 for a perfect fit;
    /// defined as 1 when the data has zero variance).
    pub r2: f64,
    /// Number of points used.
    pub n: usize,
}

/// Ordinary least squares over `(x, y)` pairs. Returns `None` for fewer
/// than two points or degenerate `x` (all equal).
pub(crate) fn linear_fit(points: &[(f64, f64)]) -> Option<LinFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = nf * sxx - sx * sx;
    if denom.abs() < 1e-12 * (1.0 + sxx.abs()) {
        return None;
    }
    let slope = (nf * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / nf;

    let my = sy / nf;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot <= f64::EPSILON * (1.0 + my * my) {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Some(LinFit {
        slope,
        intercept,
        r2,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_line_fit() {
        let pts: Vec<(f64, f64)> = (0..10).map(|k| (k as f64, 3.0 * k as f64 - 2.0)).collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert_eq!(f.n, 10);
    }

    #[test]
    fn noisy_fit_recovers_slope() {
        // Deterministic "noise" via a fixed pattern.
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|k| {
                let x = k as f64 * 0.1;
                let noise = if k % 2 == 0 { 0.05 } else { -0.05 };
                (x, 2.0 * x + 1.0 + noise)
            })
            .collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.slope - 2.0).abs() < 0.02, "slope {}", f.slope);
        assert!(f.r2 > 0.99);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        // Vertical line: all x equal.
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]).is_none());
    }

    #[test]
    fn constant_y_has_unit_r2() {
        let f = linear_fit(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r2, 1.0);
    }
}
