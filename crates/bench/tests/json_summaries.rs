//! Every table binary that accepts `--json FILE` writes a summary there
//! that parses as JSON. Each runs at its smallest scale.

use std::process::Command;

/// A strict recursive-descent JSON validator: each method consumes one
/// production, or fails with the byte offset where parsing stopped.
struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .text
            .get(self.at)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), usize> {
        self.skip_ws();
        if self.text.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.at)
        }
    }

    fn value(&mut self) -> Result<(), usize> {
        self.skip_ws();
        match self.text.get(self.at) {
            Some(b'{') => self.seq(b'{', b'}', |p| {
                p.string()?;
                p.eat(b':')?;
                p.value()
            }),
            Some(b'[') => self.seq(b'[', b']', Self::value),
            Some(b'"') => self.string(),
            Some(b't') => self.word("true"),
            Some(b'f') => self.word("false"),
            Some(b'n') => self.word("null"),
            _ => self.number(),
        }
    }

    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), usize>,
    ) -> Result<(), usize> {
        self.eat(open)?;
        if self.eat(close).is_ok() {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(b',').is_err() {
                return self.eat(close);
            }
        }
    }

    fn string(&mut self) -> Result<(), usize> {
        self.eat(b'"')?;
        while let Some(&c) = self.text.get(self.at) {
            self.at += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => self.at += 1,
                c if c < 0x20 => return Err(self.at - 1),
                _ => {}
            }
        }
        Err(self.at)
    }

    fn word(&mut self, word: &str) -> Result<(), usize> {
        if self.text[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(())
        } else {
            Err(self.at)
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<(), usize> {
        let _ = self.literal(b"-");
        if self.literal(b"0").is_err() {
            self.digits()?;
        }
        if self.literal(b".").is_ok() {
            self.digits()?;
        }
        if self.literal(b"eE").is_ok() {
            let _ = self.literal(b"+-");
            self.digits()?;
        }
        Ok(())
    }

    /// One byte out of `set`.
    fn literal(&mut self, set: &[u8]) -> Result<(), usize> {
        match self.text.get(self.at) {
            Some(c) if set.contains(c) => {
                self.at += 1;
                Ok(())
            }
            _ => Err(self.at),
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), usize> {
        let start = self.at;
        while self.text.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        if self.at > start {
            Ok(())
        } else {
            Err(start)
        }
    }
}

fn parses(text: &str) -> Result<(), usize> {
    let mut parser = Parser {
        text: text.as_bytes(),
        at: 0,
    };
    parser.value()?;
    parser.skip_ws();
    if parser.at == text.len() {
        Ok(())
    } else {
        Err(parser.at)
    }
}

#[test]
fn validator_accepts_json_and_rejects_the_rest() {
    assert!(parses(r#"{"a":[1,-2.5,3e-6],"b":{"c":"x\"y"},"d":true,"e":null,"f":[]}"#).is_ok());
    for bad in [
        "",
        "{",
        r#"{"a":}"#,
        "[1,]",
        "01",
        "1.",
        "-",
        "1e",
        "NaN",
        r#"{"a":1}x"#,
        "inf",
    ] {
        assert!(parses(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn table_binaries_write_parseable_json_summaries() {
    let runs: [(&str, &str, &[&str]); 5] = [
        ("ablation_crc", env!("CARGO_BIN_EXE_ablation_crc"), &[]),
        (
            "ablation_dense_self_recovery",
            env!("CARGO_BIN_EXE_ablation_dense_self_recovery"),
            &["--trials", "1"],
        ),
        (
            "ablation_detection_threshold",
            env!("CARGO_BIN_EXE_ablation_detection_threshold"),
            &["--trials", "1"],
        ),
        ("ablation_plan", env!("CARGO_BIN_EXE_ablation_plan"), &[]),
        (
            "table10_timing",
            env!("CARGO_BIN_EXE_table10_timing"),
            &["--trials", "1"],
        ),
    ];
    let dir = std::env::temp_dir().join(format!("milr-json-summaries-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, exe, args) in runs {
        let path = dir.join(format!("{name}.json"));
        let out = Command::new(exe)
            .args(args)
            .arg("--json")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name} wrote no --json file: {e}"));
        if let Err(at) = parses(text.trim_end()) {
            panic!("{name}: not JSON at byte {at}: {text}");
        }
        assert!(
            text.contains(&format!("\"table\":\"{name}\"")),
            "{name}: summary does not name its table: {text}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("removing the temp dir");
}
