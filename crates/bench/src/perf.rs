//! The two std-only helpers the workspace's measuring code shares.
//!
//! * [`Json`] — a hand-rolled JSON value with a parser and a compact
//!   writer (std has none and the build is offline). `pi2sim`, the
//!   metrics and Perfetto tests and the `benchmark/` package read and
//!   write their documents through it.
//! * [`median`] — of per-repetition or per-pair samples; robust to the
//!   odd scheduler hiccup that makes single-shot timings useless.
//!
//! Nothing here touches the file system. Costs are measured in one place,
//! the `benchmark/` package (`BENCHMARK.json` declares it); the checks
//! that hold on any host are tests: `crates/bench/tests/cost_ratios.rs`
//! and `zero_alloc*.rs`, `tests/lazy_timers.rs`, `tests/sack_recovery.rs`,
//! `tests/fluid_order.rs`.

/// Median of an unsorted slice, halfway between the middle two when the
/// length is even (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    match s.len() {
        0 => f64::NAN,
        n => {
            let (lo, hi) = (s[(n - 1) / 2], s[n / 2]);
            lo + (hi - lo) * 0.5
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset and reason.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string near byte {pos}")),
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("bad \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(&c0) if c0 < 0x80 => {
                        s.push(c0 as char);
                        *pos += 1;
                    }
                    Some(_) => {
                        // Advance over one UTF-8 scalar, not one byte. Decode
                        // from a 4-byte window — validating the whole remaining
                        // buffer here would make string parsing quadratic.
                        let end = (*pos + 4).min(b.len());
                        let c = match std::str::from_utf8(&b[*pos..end]) {
                            Ok(w) => w.chars().next().unwrap(),
                            Err(e) if e.valid_up_to() > 0 => {
                                std::str::from_utf8(&b[*pos..*pos + e.valid_up_to()])
                                    .unwrap()
                                    .chars()
                                    .next()
                                    .unwrap()
                            }
                            Err(_) => return Err("invalid UTF-8 in string".into()),
                        };
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            tok.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{tok}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_round_trips() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            (
                "runs".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("s".into(), Json::Str("a \"quoted\" na\\me\n".into())),
                    ("n".into(), Json::Num(-12.5)),
                    ("i".into(), Json::Num(1723000000.0)),
                    ("b".into(), Json::Bool(true)),
                    ("z".into(), Json::Null),
                    ("e".into(), Json::Arr(vec![])),
                ])]),
            ),
        ]);
        let text = doc.to_json();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Integral numbers serialize without a fraction part.
        assert!(text.contains("1723000000"), "{text}");
        assert!(!text.contains("1723000000.0"), "{text}");
    }

    #[test]
    fn json_parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , 2.5e1 , \"π → µ\" ] } ").unwrap();
        let arr = v.get("k").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(25.0));
        assert_eq!(arr[2], Json::Str("π → µ".into()));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, ]").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("{1: 2}").is_err());
    }
}
