//! The crate's one JSON writer: trace lines and drill reports render their
//! fields through [`JsonValue`] into a [`JsonObject`].

use std::fmt::Write as _;

/// A field value with a JSON rendering.
pub(crate) trait JsonValue {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! json_display {
    ($($T:ty),+) => {$(
        impl JsonValue for $T {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

json_display!(u8, u32, u64, bool);

/// A string literal, escaped.
impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
        out.push('"');
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// An array, no spaces: `[1,4]`.
impl<T: JsonValue> JsonValue for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// A counter map, one line: `{"insert": 1, "lookup": 2}`.
impl JsonValue for [(String, u64)] {
    fn write_json(&self, out: &mut String) {
        let mut map = JsonObject::open(out, &INLINE);
        for (key, value) in self {
            map.field(key, value);
        }
        map.close();
    }
}

/// The separators of one object layout: its opening, between two fields,
/// between a key and its value, and its closing.
pub(crate) struct Layout(&'static str, &'static str, &'static str, &'static str);

/// One line, no spaces: a JSONL trace event.
pub(crate) const COMPACT: Layout = Layout("{", ",", ":", "}");

/// One field per line, indented, newline-terminated: a report file.
pub(crate) const PRETTY: Layout = Layout("{\n  ", ",\n  ", ": ", "\n}\n");

/// One line, spaced: a map inside a report.
const INLINE: Layout = Layout("{", ", ", ": ", "}");

/// A JSON object being written into a `String`, one field at a time.
pub(crate) struct JsonObject<'a> {
    out: &'a mut String,
    layout: &'static Layout,
    /// What goes before the next field: nothing before the first.
    sep: &'static str,
}

impl<'a> JsonObject<'a> {
    /// Open an object at the end of `out`.
    pub(crate) fn open(out: &'a mut String, layout: &'static Layout) -> Self {
        out.push_str(layout.0);
        JsonObject {
            out,
            layout,
            sep: "",
        }
    }

    /// Append the field `key: value`.
    pub(crate) fn field(&mut self, key: &str, value: &(impl JsonValue + ?Sized)) -> &mut Self {
        self.out.push_str(self.sep);
        self.sep = self.layout.1;
        key.write_json(self.out);
        self.out.push_str(self.layout.2);
        value.write_json(self.out);
        self
    }

    /// Close the object.
    pub(crate) fn close(self) {
        self.out.push_str(self.layout.3);
    }
}
