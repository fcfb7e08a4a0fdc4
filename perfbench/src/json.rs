//! A minimal JSON object writer for the result line (no serializer
//! dependency is available offline).

/// An ordered JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn raw(&mut self, key: &str, value: String) {
        self.fields.push((quote(key), value));
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) {
        self.raw(key, quote(v));
    }

    /// A numeric field.
    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, number(v));
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.raw(key, v.to_string());
    }

    /// An array-of-numbers field.
    pub fn nums(&mut self, key: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    /// A nested object field.
    pub fn obj(&mut self, key: &str, v: Obj) {
        self.raw(key, v.render());
    }

    /// A metric: `{"value": v, "unit": unit}`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        let mut m = Obj::new();
        m.num("value", value);
        m.str("unit", unit);
        self.obj(name, m);
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}
