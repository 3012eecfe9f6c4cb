//! Statistics shared by the crate's distribution tests: the chi-square
//! upper tail that turns a goodness-of-fit or homogeneity statistic into a
//! p-value, so each law test can state its false-failure rate.

/// `ln Γ(x)` for `x > 0` (Lanczos, `g = 7`, nine terms; ~1e-15).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[0]
        + C[1..]
            .iter()
            .enumerate()
            .map(|(i, &c)| c / (x + i as f64 + 1.0))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// `P(χ²_df > x)`: the upper regularized incomplete gamma function
/// `Q(df/2, x/2)`, by its series below `a + 1` and its continued
/// fraction above.
pub(crate) fn chi_square_tail(df: f64, x: f64) -> f64 {
    let (a, x) = (df / 2.0, x / 2.0);
    if x <= 0.0 {
        return 1.0;
    }
    let front = (-x + a * x.ln() - ln_gamma(a)).exp();
    if x < a + 1.0 {
        let (mut term, mut sum, mut ap) = (1.0 / a, 1.0 / a, a);
        while term.abs() > sum.abs() * 1e-16 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
        }
        1.0 - front * sum
    } else {
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let (mut c, mut d) = (1.0 / tiny, 1.0 / b);
        let mut h = d;
        for i in 1..10_000 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            d = if d.abs() < tiny { tiny } else { d };
            c = b + an / c;
            c = if c.abs() < tiny { tiny } else { c };
            d = 1.0 / d;
            h *= d * c;
            if (d * c - 1.0).abs() < 1e-16 {
                break;
            }
        }
        front * h
    }
}

#[test]
fn chi_square_tail_matches_tabulated_quantiles() {
    // (df, x, upper tail) from standard tables.
    for (df, x, p) in [
        (1.0, 3.841_459, 0.05),
        (1.0, 19.511_421, 1e-5),
        (4.0, 13.276_704, 0.01),
        (10.0, 18.307_038, 0.05),
        (30.0, 59.702_747, 0.001),
        (200.0, 233.994_273, 0.05),
    ] {
        let got = chi_square_tail(df, x);
        assert!((got / p - 1.0).abs() < 1e-4, "df={df} x={x}: {got} vs {p}");
    }
}
