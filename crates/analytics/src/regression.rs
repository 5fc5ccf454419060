//! Ordinary least squares regression (simple linear model).

use crate::stats::mean;

/// A fitted line `y = intercept + slope·x` with fit quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Residual standard deviation.
    pub residual_sd: f64,
    /// Number of observations.
    pub n: usize,
}

impl LinearFit {
    /// Invert the model: the x that predicts y (for calibration transfer).
    /// `None` when the slope is ~zero.
    pub fn invert(&self, y: f64) -> Option<f64> {
        if self.slope.abs() < 1e-12 {
            None
        } else {
            Some((y - self.intercept) / self.slope)
        }
    }
}

/// Fit `y = a + b·x` by OLS. `None` if fewer than 2 points or degenerate x.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (intercept + slope * x)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    let residual_sd = if n > 2 {
        (ss_res / (n - 2) as f64).sqrt()
    } else {
        0.0
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
        residual_sd,
        n,
    })
}

/// Root mean squared error between predictions and observations.
pub fn rmse(pred: &[f64], obs: &[f64]) -> Option<f64> {
    assert_eq!(pred.len(), obs.len());
    if pred.is_empty() {
        return None;
    }
    Some(
        (pred
            .iter()
            .zip(obs)
            .map(|(p, o)| (p - o).powi(2))
            .sum::<f64>()
            / pred.len() as f64)
            .sqrt(),
    )
}

/// Mean absolute error.
pub fn mae(pred: &[f64], obs: &[f64]) -> Option<f64> {
    assert_eq!(pred.len(), obs.len());
    if pred.is_empty() {
        return None;
    }
    Some(
        pred.iter()
            .zip(obs)
            .map(|(p, o)| (p - o).abs())
            .sum::<f64>()
            / pred.len() as f64,
    )
}

/// Mean bias (prediction − observation).
pub fn bias(pred: &[f64], obs: &[f64]) -> Option<f64> {
    assert_eq!(pred.len(), obs.len());
    if pred.is_empty() {
        return None;
    }
    Some(pred.iter().zip(obs).map(|(p, o)| p - o).sum::<f64>() / pred.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.5 * x).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-10);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!(fit.residual_sd < 1e-9);
        assert_eq!(fit.n, 50);
        assert!((fit.invert(253.0).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_estimated() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 10.0 + 0.5 * x + ((i * 2654435761) % 100) as f64 / 50.0 - 1.0)
            .collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 0.5).abs() < 0.01, "slope {}", fit.slope);
        assert!((fit.intercept - 10.0).abs() < 1.0);
        assert!(fit.r2 > 0.99);
        assert!(fit.residual_sd > 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(linear_fit(&[], &[]).is_none());
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        // Constant x: undefined slope.
        assert!(linear_fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).is_none());
        // Constant y: slope 0, r² defined as 1 (perfect fit of a constant).
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
        assert!(fit.invert(5.0).is_none());
    }

    #[test]
    fn error_metrics() {
        let pred = [1.0, 2.0, 3.0];
        let obs = [1.0, 1.0, 5.0];
        assert!((rmse(&pred, &obs).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mae(&pred, &obs).unwrap() - 1.0).abs() < 1e-12);
        assert!((bias(&pred, &obs).unwrap() - (-1.0 / 3.0)).abs() < 1e-12);
        assert!(rmse(&[], &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_lengths_panic() {
        linear_fit(&[1.0], &[1.0, 2.0]);
    }
}
