//! Minimal recursive-descent JSON parser for the benchmark gates.
//!
//! The workspace's serde is an offline no-op shim, so the `bench_gate`
//! binary — which replaced the inline `python3` gate scripts so CI
//! needs no Python — parses the benchmark JSON with this module
//! instead. It covers exactly what the hand-written emitters produce
//! (objects, arrays, strings with `\"`/`\\`/`\uXXXX` escapes, numbers
//! including exponent form, booleans, null) and fails loudly on
//! anything else — with an error, never a panic: nesting deeper than
//! [`MAX_DEPTH`] is refused rather than recursed into.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so unbounded nesting would overflow
/// the stack instead of returning an error.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the gates only need f64 precision).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is irrelevant to the gates.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error or trailing garbage.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup: `json.get("churn")`, `None` for non-objects and
    /// missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Dotted-path lookup through nested objects and arrays:
    /// `json.at("churn.delay_attribution.traced")`,
    /// `json.at("autotune.campaign.loads.0.retuned_gain")` — a purely
    /// numeric segment indexes an array (and only an array; object
    /// keys are never numeric in the benchmark schema).
    #[must_use]
    pub fn at(&self, path: &str) -> Option<&Json> {
        let mut current = self;
        for key in path.split('.') {
            current = match current {
                Self::Arr(items) => items.get(key.parse::<usize>().ok()?)?,
                _ => current.get(key)?,
            };
        }
        Some(current)
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => write!(f, "null"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Num(n) => write!(f, "{n}"),
            Self::Str(s) => write!(f, "{s:?}"),
            Self::Arr(items) => write!(f, "[{} items]", items.len()),
            Self::Obj(map) => write!(f, "{{{} members}}", map.len()),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| format!("bad \\u digits at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u digits at byte {}", self.pos))?;
                            // Surrogate pairs never appear in this
                            // workspace's ASCII-only emitters.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u code at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number {text:?} at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\u0041\"").unwrap(),
            Json::Str("a\"b\\cA".into())
        );
    }

    #[test]
    fn parses_nested_structures_and_paths() {
        let doc = Json::parse(
            r#"{"a": {"b": [1, 2.5, {"c": true}]}, "empty": {}, "list": [], "s": "x"}"#,
        )
        .unwrap();
        assert_eq!(doc.at("a.b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.at("a.b").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(doc.at("empty"), Some(&Json::Obj(BTreeMap::new())));
        assert_eq!(doc.at("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.at("a.missing"), None);
        assert_eq!(doc.at("s.deeper"), None);
    }

    #[test]
    fn paths_index_arrays_numerically() {
        let doc = Json::parse(r#"{"loads": [{"gain": 0.25}, {"gain": -0.5}], "n": 7}"#).unwrap();
        assert_eq!(doc.at("loads.0.gain").unwrap().as_f64(), Some(0.25));
        assert_eq!(doc.at("loads.1.gain").unwrap().as_f64(), Some(-0.5));
        assert_eq!(doc.at("loads.2.gain"), None);
        assert_eq!(doc.at("loads.x"), None);
        // Numeric segments never index objects.
        assert_eq!(doc.at("0"), None);
    }

    #[test]
    fn round_trips_a_real_report_shape() {
        // A trimmed copy of the bench emitter's structure, including
        // the escaped-string and exponent forms it produces.
        let doc = Json::parse(
            "{\n  \"speedup\": 1.234,\n  \"hw_threads\": 1,\n  \"maps_identical\": true,\n  \
             \"churn\": {\"topology\": \"3 rings x 4 hosts\", \
             \"latency\": {\"p99_us\": 2.493948e5}, \
             \"fast_path\": {\"fast_accepts\": 120, \"fast_rejects\": 60, \
             \"fallbacks\": 20, \"hit_rate\": 0.900000}, \
             \"recovery\": {\"reclaimed_s\": 1.500000000000e-4}},\n  \
             \"decision_latency\": {\"decisions\": 2000, \"p99_us\": 51.200, \
             \"fast_hit_rate\": 0.923077},\n  \
             \"ring_utilization\": [{\"mean\":0.25,\"peak\":0.5}]\n}",
        )
        .unwrap();
        assert_eq!(doc.at("maps_identical").unwrap().as_bool(), Some(true));
        let reclaimed = doc
            .at("churn.recovery.reclaimed_s")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((reclaimed - 1.5e-4).abs() < 1e-18);
        assert_eq!(
            doc.at("churn.topology").unwrap().as_str(),
            Some("3 rings x 4 hosts")
        );
        // The gate's dotted paths into the fast-path sections must
        // resolve exactly as the emitter writes them.
        let churn_p99 = doc.at("churn.latency.p99_us").unwrap().as_f64().unwrap();
        assert!((churn_p99 - 249_394.8).abs() < 0.1);
        assert_eq!(
            doc.at("churn.fast_path.fast_accepts").unwrap().as_f64(),
            Some(120.0)
        );
        assert_eq!(
            doc.at("churn.fast_path.hit_rate").unwrap().as_f64(),
            Some(0.9)
        );
        let p99 = doc.at("decision_latency.p99_us").unwrap().as_f64().unwrap();
        assert!((p99 - 51.2).abs() < 1e-9);
        let hit = doc
            .at("decision_latency.fast_hit_rate")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(hit > 0.9 && hit < 1.0);
        assert_eq!(doc.at("hw_threads").unwrap().as_f64(), Some(1.0));
        assert!(doc.at("decision_latency.missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // Nesting up to the cap still parses.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
    }

    /// Bytes JSON syntax is made of, so random documents get past the
    /// first token often enough to reach the nested and escaped paths.
    const JSON_BYTES: &[u8] = b"[]{}\":,\\/u0123456789abcdefABCDEF.eE+-truefalsenl \t\n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0_u32..256, 0..256),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn parse_never_panics_on_json_shaped_bytes(
            picks in proptest::collection::vec(0_usize..JSON_BYTES.len(), 0..512),
        ) {
            let text: String = picks.into_iter().map(|i| JSON_BYTES[i] as char).collect();
            let _ = Json::parse(&text);
        }
    }
}
