//! Artifact writers shared by examples and CI.
//!
//! Every JSON artifact the repo emits (`CHAOS_drill.json`,
//! `OBS_trace.json`, …) goes through this module
//! so the on-disk format is decided in exactly one place: pretty-printed
//! with 2-space indentation and a trailing newline, which diffs cleanly
//! and round-trips through the vendored `serde_json` shim.

use serde::Serialize;
use std::io;
use std::path::Path;

/// Renders any serializable value as pretty JSON with a trailing newline.
pub fn json_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut s = value.to_value().to_json_pretty();
    s.push('\n');
    s
}

/// Writes `value` to `path` as pretty JSON (see [`json_pretty`]).
pub fn write_json_pretty<T: Serialize + ?Sized>(
    path: impl AsRef<Path>,
    value: &T,
) -> io::Result<()> {
    std::fs::write(path, json_pretty(value))
}

/// Writes an already-rendered artifact (Prometheus text, JSONL) verbatim.
pub fn write_text(path: impl AsRef<Path>, text: &str) -> io::Result<()> {
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn json_pretty_is_indented_with_trailing_newline() {
        let v = Value::Object(vec![(
            "a".to_string(),
            Value::Array(vec![Value::Number(serde::Number::Int(1))]),
        )]);
        let s = json_pretty(&v);
        assert_eq!(s, "{\n  \"a\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn write_json_pretty_round_trips() {
        let dir = std::env::temp_dir().join("cynthia_obs_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let rows = vec![1.5f64, 2.0];
        write_json_pretty(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back[0].as_f64(), Some(1.5));
        std::fs::remove_file(&path).ok();
    }
}
