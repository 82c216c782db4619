//! Hand-written exporters: [`Trace::to_json_lines`] for per-record
//! forensics ("explain this rejection"), and the exposition-format
//! escaping that [`crate::RegistrySnapshot::to_openmetrics`] renders
//! metrics with.

use crate::{FieldValue, Trace, TraceRecord};
use std::fmt::Write as _;

/// Appends `text` to `out` as a JSON string literal (quotes included).
pub fn push_json_str(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a Prometheus/OpenMetrics label *value* (quotes included),
/// escaped per the text exposition format: backslash, double-quote,
/// and line-feed.
pub fn push_label_value(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the `# HELP` / `# TYPE` header of one metric family. Help
/// text is escaped per the exposition format (backslash, line-feed).
pub fn push_family_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends one trace record as a JSON object — the exact per-line
/// shape of [`Trace::to_json_lines`] (six keys, fixed order), without
/// the trailing newline. Lets embedders wrap records in their own
/// envelope (e.g. shard-tagged span timelines).
pub fn push_record_json(out: &mut String, r: &TraceRecord) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\",\"name\":",
        r.seq,
        r.at_nanos,
        r.kind.name()
    );
    push_json_str(out, r.name);
    let _ = write!(out, ",\"span\":{},\"fields\":{{", r.span);
    for (i, (key, value)) in r.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, key);
        out.push(':');
        push_field_value(out, value);
    }
    out.push_str("}}");
}

fn push_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::Str(v) => push_json_str(out, v),
        FieldValue::Text(v) => push_json_str(out, v),
    }
}

impl Trace {
    /// One JSON object per record, one record per line:
    ///
    /// ```text
    /// {"seq":0,"at_ns":120,"kind":"span_start","name":"admit","span":1,"fields":{}}
    /// {"seq":1,"at_ns":480,"kind":"event","name":"stage1","span":1,"fields":{"ring":0,"hit":true}}
    /// ```
    ///
    /// The line shape is fixed (six keys, this order); only the
    /// `fields` object varies by record name. Non-finite floats export
    /// as `null`.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.records().len() * 96);
        for r in self.records() {
            push_record_json(&mut out, r);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{collect, event, span, FieldValue};

    fn sample() -> crate::Trace {
        let ((), trace) = collect(64, || {
            let _admit = span("admit");
            event(
                "stage1",
                &[
                    ("ring", FieldValue::U64(2)),
                    ("hit", FieldValue::Bool(false)),
                    ("delay_s", FieldValue::F64(0.0125)),
                    ("kind", FieldValue::Str("uplink")),
                    ("note", FieldValue::Text("a \"quoted\"\nmsg".into())),
                    ("bad", FieldValue::F64(f64::NAN)),
                    ("neg", FieldValue::I64(-3)),
                ],
            );
            event("stage1", &[]);
        });
        trace
    }

    #[test]
    fn json_lines_shape_and_escaping() {
        let lines: Vec<String> = sample().to_json_lines().lines().map(String::from).collect();
        assert_eq!(lines.len(), 4); // span start, two events, span end
        for line in &lines {
            assert!(line.starts_with("{\"seq\":"), "line {line}");
            assert!(line.contains("\"kind\":\""));
            assert!(line.ends_with("}}"), "line {line}");
        }
        let rich = &lines[1];
        assert!(rich.contains("\"ring\":2"));
        assert!(rich.contains("\"hit\":false"));
        assert!(rich.contains("\"delay_s\":0.0125"));
        assert!(rich.contains("\"kind\":\"uplink\""));
        assert!(rich.contains("\"note\":\"a \\\"quoted\\\"\\nmsg\""));
        assert!(rich.contains("\"bad\":null"));
        assert!(rich.contains("\"neg\":-3"));
    }

    #[test]
    fn label_values_escape_per_exposition_format() {
        let mut out = String::new();
        super::push_label_value(&mut out, "a\\b\"c\nd");
        assert_eq!(out, "\"a\\\\b\\\"c\\nd\"");
        let mut hdr = String::new();
        super::push_family_header(&mut hdr, "m", "multi\nline \\help", "gauge");
        assert_eq!(hdr, "# HELP m multi\\nline \\\\help\n# TYPE m gauge\n");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = crate::Trace::default();
        assert_eq!(trace.to_json_lines(), "");
    }
}
