//! Minimal hand-rolled JSON: an escape helper for the writers and a
//! recursive-descent parser for the readers.
//!
//! The workspace has no serialization dependency. All exporters in this
//! crate therefore *write* JSON by hand (which also guarantees key order,
//! hence byte determinism), and the cache, self-checks and gates *read* it
//! back through this parser. The subset supported is exactly what our writers
//! emit: objects, arrays, strings, finite numbers, booleans and null.
//!
//! Parsed objects keep their members in source order, so a reader that
//! rebuilds a list of named entries (a report's categories, counters,
//! histograms) gets them back in the order the writer emitted them, and
//! writing the result again reproduces the same bytes.
//!
//! The parser also reads files from outside the process (cache entries,
//! bench files, wall reports), so malformed input of any shape is an
//! `Err`, never a panic: nesting is capped at [`MAX_DEPTH`], a key that
//! appears twice in one object is rejected, and every step is at most
//! `n log n` in the bytes it consumes.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their members in source order, and
/// no two members of one object share a key.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. `f64` is exact for every value our writers emit
    /// (simulated-cycle counts in these workloads stay far below 2^53).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object: its members in source order, keys unique.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// The member named `key` of an object; `None` if there is none or
    /// this is not an object.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[JVal]> {
        match self {
            JVal::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JVal)]> {
        match self {
            JVal::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` if it is integral, non-negative and below
    /// 2^64. A fraction or an out-of-range value is `None`, not a rounded
    /// or saturated count: a damaged field must read as missing.
    pub fn as_u64(&self) -> Option<u64> {
        // 2^64 is exact in f64; `fract` of an infinity or NaN is NaN.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            JVal::Num(n) if n.fract() == 0.0 && (0.0..TWO_POW_64).contains(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JVal::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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
    out
}

/// Deepest array/object nesting [`parse`] accepts. Our writers nest at most
/// about five levels; the cap keeps hostile input off the call stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<JVal, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
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
        Err(format!("expected '{}' at offset {pos}", c as char))
    }
}

/// Parses one value; `depth` counts the containers already open around it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(JVal::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JVal::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JVal::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JVal::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JVal) -> Result<JVal, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // `f64::from_str` rounds a number past `f64::MAX` to an infinity;
    // JSON has none, so an overflowing number is malformed input.
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(JVal::Num(v)),
        _ => Err(format!("bad number '{s}' at offset {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign (`\u+041`).
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at offset {pos}"));
                        }
                        let s = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let n = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece. Both are ASCII, so the run ends on a character
                // boundary of the `&str` input and decoding it costs only
                // its own length.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JVal::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JVal::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                // One sort of the key references per object: a linear scan
                // per member would make a wide object quadratic.
                let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
                    return Err(format!("duplicate key '{}' before offset {pos}", w[0]));
                }
                return Ok(JVal::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y"}, "d": true, "e": null}"#)
            .expect("parse");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[1].as_f64()),
            Some(2.5)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(|c| c.as_str()),
            Some("x\"y")
        );
        assert_eq!(v.get("d").and_then(|d| d.as_bool()), Some(true));
        assert_eq!(v.get("e"), Some(&JVal::Null));
    }

    #[test]
    fn objects_keep_source_member_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": {"y": 3, "b": 4}}"#).expect("parse");
        let keys = |v: &JVal| -> Vec<String> {
            v.as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(keys(&v), ["z", "a", "m"]);
        assert_eq!(keys(v.get("m").expect("m")), ["y", "b"]);
        assert_eq!(v.get("a").and_then(JVal::as_u64), Some(2));
    }

    #[test]
    fn duplicated_keys_are_errors() {
        assert!(parse(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse(r#"{"a": 1, "b": 2, "a": 1}"#).is_err());
        assert!(parse(r#"[{"x": {"k": [], "k": null}}]"#).is_err());
        // The same key in sibling or nested objects is fine.
        assert!(parse(r#"{"a": {"a": 1}, "b": {"a": 2}}"#).is_ok());
    }

    #[test]
    fn wide_objects_parse_in_n_log_n_time() {
        // 200,000 distinct keys: a pairwise duplicate check needs about
        // 2 * 10^10 comparisons, the sorted one about 4 * 10^6.
        let members: Vec<String> = (0..200_000).map(|i| format!("\"k{i}\": {i}")).collect();
        let doc = format!("{{{}}}", members.join(", "));
        let start = std::time::Instant::now();
        let v = parse(&doc).expect("parse");
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "took {took:?}");
        assert_eq!(v.get("k199999").and_then(JVal::as_u64), Some(199_999));
    }

    #[test]
    fn roundtrips_escapes() {
        let src = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"s\": \"{}\"}}", esc(src));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some(src));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn numbers_that_overflow_f64_are_errors() {
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert!(parse("{\"t\": [1, 1e999]}").is_err());
        assert_eq!(parse("1e308"), Ok(JVal::Num(1e308)));
        assert_eq!(parse("-1e308"), Ok(JVal::Num(-1e308)));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        assert!(parse(&deep).is_err());
        let deep_obj = "{\"k\": ".repeat(1_000_000);
        assert!(parse(&deep_obj).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(parse(&past_cap).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 1 MB string parses in milliseconds; a scan that re-validates the
        // rest of the document per character needs minutes, so the generous
        // bound separates the two without depending on host speed.
        let long: String = "ab\u{e9}\u{1f600}".repeat(100_000);
        let doc = format!("{{\"s\": \"{}\", \"t\": \"x\\u0041y\"}}", esc(&long));
        let start = std::time::Instant::now();
        let v = parse(&doc).expect("parse");
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "took {took:?}");
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some(long.as_str()));
        assert_eq!(v.get("t").and_then(|t| t.as_str()), Some("xAy"));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u04g1""#).is_err());
        assert!(parse(r#""\u041""#).is_err());
        assert_eq!(parse(r#""\u00e9""#), Ok(JVal::Str("\u{e9}".into())));
    }

    #[test]
    fn large_cycle_counts_are_exact() {
        let v = parse("{\"t\": 9007199254740992}").expect("parse");
        assert_eq!(v.get("t").and_then(|t| t.as_u64()), Some(1u64 << 53));
    }

    #[test]
    fn as_u64_rejects_fractions_and_out_of_range_numbers() {
        let num = |src: &str| parse(src).expect("parse").as_u64();
        assert_eq!(num("0"), Some(0));
        assert_eq!(num("-0"), Some(0));
        assert_eq!(num("3.0"), Some(3));
        assert_eq!(num("1e3"), Some(1000));
        assert_eq!(num("18446744073709549568"), Some(u64::MAX - 2047));
        assert_eq!(num("2.5"), None);
        assert_eq!(num("0.5"), None);
        assert_eq!(num("-1"), None);
        assert_eq!(num("18446744073709551616"), None);
        assert_eq!(num("\"7\""), None);
    }
}
