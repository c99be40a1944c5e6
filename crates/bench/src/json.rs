//! The one JSON writer behind every `json_block`: values arrive already
//! formatted (the precision of a number is part of a figure's schema), as
//! `(key, value)` pairs, so a key sits beside its value and adding a
//! column is adding one pair. Separators and indentation are emitted here
//! and nowhere else.

/// A string value: quoted, with `"`, `\` and control characters escaped.
pub(crate) fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

fn members(pairs: &[(&str, String)]) -> Vec<String> {
    pairs.iter().map(|(key, value)| format!("{}: {value}", string(key))).collect()
}

/// One item per line, two columns in from the closing bracket at `indent`.
fn block(open: char, items: Vec<String>, close: char, indent: usize) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    let pad = " ".repeat(indent + 2);
    format!("{open}\n{pad}{}\n{}{close}", items.join(&format!(",\n{pad}")), " ".repeat(indent))
}

/// A one-line object: a cell of a sweep.
pub(crate) fn row(pairs: &[(&str, String)]) -> String {
    format!("{{{}}}", members(pairs).join(", "))
}

/// A one-line array of scalars.
pub(crate) fn list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// A multi-line object whose closing brace sits at column `indent`.
pub(crate) fn object(indent: usize, pairs: &[(&str, String)]) -> String {
    block('{', members(pairs), '}', indent)
}

/// A multi-line array, one item per line, closing at column `indent`.
pub(crate) fn array(indent: usize, items: impl IntoIterator<Item = String>) -> String {
    block('[', items.into_iter().collect(), ']', indent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::trace::perfetto::{parse_json, Json};

    #[test]
    fn escapes_nests_and_closes_empty_arrays() {
        let doc = object(
            2,
            &[
                ("na\"me", string("tab\there \\ \"quoted\"\n")),
                ("loads", list([32, 64].map(|l| l.to_string()))),
                ("cells", array(4, [row(&[("x", "1.50".into())]), row(&[])])),
                ("none", array(4, [])),
            ],
        );
        assert_eq!(
            doc,
            "{\n    \"na\\\"me\": \"tab\\u0009here \\\\ \\\"quoted\\\"\\u000a\",\n    \
             \"loads\": [32, 64],\n    \"cells\": [\n      {\"x\": 1.50},\n      {}\n    ],\n    \
             \"none\": []\n  }"
        );
        let parsed = parse_json(&doc).expect("the writer's output parses");
        assert_eq!(parsed.get("na\"me"), Some(&Json::Str("tab\there \\ \"quoted\"\n".into())));
        assert_eq!(parsed.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(parsed.get("none"), Some(&Json::Arr(Vec::new())));
    }
}
