//! Snapshot export: hand-rolled JSON and Prometheus text exposition.
//!
//! The workspace has no serialization framework, so — as everywhere
//! else — serialization is written by hand.
//! The float/string helpers here are shared with the bench bins
//! (`chaos_matrix`, `perf_baseline`) so the workspace has exactly one
//! JSON number formatter instead of a copy per binary.

/// Formats a float for JSON: finite values with four decimal places
/// (enough for seconds/ratios in reports), non-finite as `null`.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// Formats an optional float for JSON via [`json_f64`]; `None` is `null`.
#[must_use]
pub fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// Escapes a string for inclusion in a JSON document (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sanitizes an internal dotted metric name into a legal Prometheus
/// metric name: every character outside `[a-zA-Z0-9_]` becomes `_` and
/// the result is prefixed with `mtat_` (Prometheus names cannot contain
/// dots and should carry a namespace).
///
/// ```
/// use mtat_obs::export::prometheus_name;
/// assert_eq!(prometheus_name("runner.lc_p99_ns"), "mtat_runner_lc_p99_ns");
/// ```
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("mtat_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a `{label="value",...}` selector from label pairs (empty
/// string when there are none). Label values are escaped per the text
/// exposition format (backslash, quote, newline).
#[must_use]
pub fn prometheus_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes free text for a `# HELP` line body. The exposition format
/// gives `# HELP` its own escape table — only backslash and newline
/// (label values additionally escape `"`); a raw newline in the help
/// text would otherwise split the comment mid-line and desynchronize
/// the scraper. Internal metric names are caller-controlled today, but
/// the scenario engine interpolates phase labels into names, so this
/// is load-bearing, not defensive.
///
/// ```
/// use mtat_obs::export::prometheus_help_text;
/// assert_eq!(prometheus_help_text("a\\b\nc"), "a\\\\b\\nc");
/// ```
#[must_use]
pub fn prometheus_help_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            // A raw carriage return is not escapable in the format and
            // would corrupt the line for strict parsers; neutralize it.
            '\r' => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float for Prometheus sample values (`NaN`/`+Inf`/`-Inf`
/// spellings per the exposition format).
#[must_use]
pub fn prometheus_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_floats() {
        assert_eq!(json_f64(1.5), "1.5000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_opt_f64(None), "null");
        assert_eq!(json_opt_f64(Some(2.0)), "2.0000");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(prometheus_name("a.b-c/d"), "mtat_a_b_c_d");
        assert_eq!(prometheus_name("already_ok"), "mtat_already_ok");
    }

    #[test]
    fn prometheus_labels_render() {
        assert_eq!(prometheus_labels(&[]), "");
        assert_eq!(
            prometheus_labels(&[("cell", "ppm_crash/mtat_full"), ("q", "0.99")]),
            "{cell=\"ppm_crash/mtat_full\",q=\"0.99\"}"
        );
        assert_eq!(prometheus_labels(&[("v", "a\"b")]), "{v=\"a\\\"b\"}");
    }

    #[test]
    fn prometheus_help_text_escapes() {
        assert_eq!(prometheus_help_text("plain text"), "plain text");
        assert_eq!(prometheus_help_text("a\\b"), "a\\\\b");
        assert_eq!(prometheus_help_text("line1\nline2"), "line1\\nline2");
        assert_eq!(prometheus_help_text("cr\rhere"), "cr here");
    }

    #[test]
    fn prometheus_float_spellings() {
        assert_eq!(prometheus_f64(f64::NAN), "NaN");
        assert_eq!(prometheus_f64(f64::INFINITY), "+Inf");
        assert_eq!(prometheus_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prometheus_f64(0.25), "0.25");
    }
}
