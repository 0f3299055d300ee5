//! Order statistics, the report digest and the hand-rendered JSON result
//! line. Kept free of simulator types so the unit tests pin them alone.

/// Nearest-rank quantile of `values` at `q` in `[0, 1]`: the smallest
/// sample with at least `q·n` samples at or below it. 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank `(q1, median, q3)`.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    )
}

/// 64-bit FNV-1a of `text`.
#[must_use]
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `a / b`, or 0 when `b` is 0, so no ratio metric is ever NaN.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with every digit Rust keeps (shortest
/// round-trip form). Non-finite values have no JSON form and become 0.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_median_and_quartiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quartiles(&v), (2.0, 3.0, 4.0));
        // Even count: nearest rank takes the lower middle sample.
        let w = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quartiles(&w), (1.0, 2.0, 3.0));
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn fnv1a_of_fixed_strings() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn ratio_never_divides_by_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn json_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny\t\u{1}"), "\"x\\ny\\t\\u0001\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.5, "s"), ("a\"b", 2.0, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"a\\\"b\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }
}
