//! The workspace's one JSON and Prometheus text writer.
//!
//! Every runtime export — trace renderings, metrics and run reports,
//! divergence summaries, blame chains, lint findings, model-check
//! witnesses, hunt telemetry — is written through this module, so each
//! output format has exactly one writer and one escape. Adding a format
//! means adding to this module.
//!
//! * **JSON:** [`push_json_str`] appends a quoted, escaped string;
//!   [`JsonObject`] and [`JsonArray`] append members and items to a
//!   `String` and place the separating commas. Members are written in call
//!   order, so key order is whatever the caller fixes.
//! * **Prometheus text exposition:** [`prom_family`] writes a family's
//!   `# HELP`/`# TYPE` header, [`prom_sample`] one counter or gauge
//!   sample, and [`prom_histogram`] one histogram series as cumulative
//!   `_bucket` lines ending in `+Inf`, then `_sum` and `_count`.
//!
//! Nothing here reads a clock or iterates an unordered container, so an
//! export is a pure function of the value rendered.

use std::fmt::{Display, Write as _};

use crate::metrics::Histogram;

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short escapes, other
/// control characters become `\u00XX`, and everything else is copied.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

/// A JSON object being appended to a `String`. [`JsonObject::new`] writes
/// the `{`, each member call writes its comma and quoted key, and
/// [`JsonObject::close`] writes the `}`.
pub struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> JsonObject<'a> {
        out.push('{');
        JsonObject { out, empty: true }
    }

    /// Starts a member: writes the separator and `"key":`, and hands back
    /// the buffer for the caller to append the value (a nested object or
    /// array, say).
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        push_json_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        push_json_str(self.key(key), value);
        self
    }

    /// A member whose value is written unquoted through `Display`: a
    /// number, a bool, or an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A string member, or `null`.
    pub fn opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// An unquoted member ([`JsonObject::raw`]), or `null`.
    pub fn opt_raw(&mut self, key: &str, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(v) => self.raw(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// A member holding an array of strings.
    pub fn strs<S: AsRef<str>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        let mut a = JsonArray::new(self.key(key));
        for s in items {
            a.str(s.as_ref());
        }
        a.close();
        self
    }

    /// A member holding an array of unquoted values ([`JsonObject::raw`]).
    pub fn raws<D: Display>(&mut self, key: &str, items: impl IntoIterator<Item = D>) -> &mut Self {
        let mut a = JsonArray::new(self.key(key));
        for v in items {
            a.raw(v);
        }
        a.close();
        self
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// A JSON array being appended to a `String`; the counterpart of
/// [`JsonObject`].
pub struct JsonArray<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonArray<'a> {
    /// Opens an array at the end of `out`.
    pub fn new(out: &'a mut String) -> JsonArray<'a> {
        out.push('[');
        JsonArray { out, empty: true }
    }

    /// Starts an item: writes the separator and hands back the buffer for
    /// the caller to append the value.
    pub fn item(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out
    }

    /// A string item.
    pub fn str(&mut self, value: &str) -> &mut Self {
        push_json_str(self.item(), value);
        self
    }

    /// An item written unquoted through `Display`.
    pub fn raw(&mut self, value: impl Display) -> &mut Self {
        let _ = write!(self.item(), "{value}");
        self
    }

    /// Closes the array.
    pub fn close(self) {
        self.out.push(']');
    }
}

/// Writes a Prometheus family header: `# HELP name help` when `help` is
/// given, then `# TYPE name kind`.
pub fn prom_family(out: &mut String, name: &str, kind: &str, help: Option<&str>) {
    if let Some(help) = help {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one sample line, `name{labels} value`. `labels` is the
/// series' rendered label list without braces (`component="x"`).
pub fn prom_sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = writeln!(out, "{name}{{{labels}}} {value}");
}

/// Writes one histogram series under the family `name`: a cumulative
/// `name_bucket` line per bound plus `le="+Inf"`, then `name_sum` and
/// `name_count`. `labels` is as for [`prom_sample`]; the `le` label goes
/// after it.
pub fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (i, &count) in h.counts.iter().enumerate() {
        cumulative += count;
        let _ = match h.bounds.get(i) {
            Some(b) => writeln!(out, "{name}_bucket{{{labels},le=\"{b}\"}} {cumulative}"),
            None => writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}"),
        };
    }
    prom_sample(out, &format!("{name}_sum"), labels, h.sum);
    prom_sample(out, &format!("{name}_count"), labels, h.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_special_characters() {
        let json = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, s);
            out
        };
        assert_eq!(json("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json("\u{1}"), "\"\\u0001\"");
        assert_eq!(json("tab\there\r\u{7f}é"), "\"tab\\there\\r\u{7f}é\"");
    }

    #[test]
    fn objects_and_arrays_place_commas() {
        let mut out = String::new();
        let mut o = JsonObject::new(&mut out);
        o.str("a", "x").raw("n", 3).opt_str("s", None);
        o.strs("l", ["p", "q"]).raws("e", Vec::<u8>::new());
        let mut a = JsonArray::new(o.key("objs"));
        let mut first = JsonObject::new(a.item());
        first.raw("b", true);
        first.close();
        JsonObject::new(a.item()).close();
        a.close();
        o.close();
        assert_eq!(
            out,
            "{\"a\":\"x\",\"n\":3,\"s\":null,\"l\":[\"p\",\"q\"],\"e\":[],\"objs\":[{\"b\":true},{}]}"
        );
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let mut out = String::new();
        prom_family(&mut out, "x", "histogram", Some("A help line."));
        prom_histogram(&mut out, "x", "c=\"a\"", &h);
        assert_eq!(
            out,
            "# HELP x A help line.\n# TYPE x histogram\n\
             x_bucket{c=\"a\",le=\"10\"} 1\nx_bucket{c=\"a\",le=\"100\"} 2\n\
             x_bucket{c=\"a\",le=\"+Inf\"} 3\nx_sum{c=\"a\"} 555\nx_count{c=\"a\"} 3\n"
        );
    }
}
