//! Property tests for the campaign JSON codec: every value the record
//! stream can contain must survive a write → parse round trip exactly,
//! since resume replays tallies from re-parsed record lines. The
//! tree-free object writer and borrowed reader must match the tree
//! codec byte for byte and value for value.

use fiq_core::json::{Field, Fields, Json, ObjWriter};
use proptest::prelude::*;

/// Characters across every interesting class: controls (written as
/// `\u` escapes), the two characters with dedicated escapes, printable
/// ASCII, the rest of the BMP below the surrogate range, and astral
/// plane scalars.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x7f,
        0xa0u32..0xd800,
        0x1_f300u32..0x1_f600,
    ]
    .prop_map(|c| char::from_u32(c).expect("ranges avoid surrogates"))
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// u64 with the extremes over-represented: 0, `u64::MAX`, and the first
/// value past `i64::MAX` (where a codec that detours through i64 or f64
/// would corrupt the number).
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        Just(0u64),
        Just(u64::MAX),
        Just(i64::MAX as u64 + 1),
        Just(1u64 << 53),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strings with escapes, control characters, and non-ASCII scalars
    /// round-trip both as values and as object keys.
    #[test]
    fn strings_roundtrip(s in arb_string(), key in arb_string()) {
        let v = Json::Obj(vec![(key, Json::str(s))]);
        let text = v.to_string();
        prop_assert_eq!(Json::parse(&text).unwrap(), v);
    }

    /// u64 numbers round-trip losslessly, including values no f64 can
    /// represent.
    #[test]
    fn u64_roundtrip(n in arb_u64()) {
        let text = Json::u64(n).to_string();
        prop_assert_eq!(text.parse::<u64>().unwrap(), n, "written as bare digits");
        prop_assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
    }

    /// Finite f64 numbers round-trip bit-exactly through the shortest
    /// representation `format!("{v}")` emits.
    #[test]
    fn f64_roundtrip(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let j = Json::f64(v);
        if v.is_finite() {
            let back = Json::parse(&j.to_string()).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        } else {
            prop_assert_eq!(j, Json::Null);
        }
    }

    /// Arbitrarily nested arrays and objects round-trip, preserving key
    /// order and element order at every level.
    #[test]
    fn nested_structures_roundtrip(
        strings in prop::collection::vec(arb_string(), 1..5),
        nums in prop::collection::vec(arb_u64(), 1..5),
        depth in 0usize..8,
    ) {
        let mut v = Json::Arr(
            nums.iter()
                .map(|&n| Json::u64(n))
                .chain(strings.iter().map(Json::str))
                .collect(),
        );
        for level in 0..depth {
            let key = &strings[level % strings.len()];
            v = if level % 2 == 0 {
                Json::Obj(vec![
                    (key.clone(), v),
                    ("n".into(), Json::u64(nums[level % nums.len()])),
                ])
            } else {
                Json::Arr(vec![v, Json::Bool(level % 3 == 0), Json::Null])
            };
        }
        let text = v.to_string();
        prop_assert_eq!(Json::parse(&text).unwrap(), v);
    }
}

/// Any JSON value, nesting arrays and objects a few levels deep.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        arb_u64().prop_map(Json::u64),
        any::<u64>().prop_map(|bits| Json::f64(f64::from_bits(bits))),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((arb_string(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

/// An object of arbitrary members, keys repeating now and then.
fn arb_object() -> impl Strategy<Value = Json> {
    let key = prop_oneof![
        arb_string(),
        prop::sample::select(vec!["record".to_string(), "task".to_string()]),
    ];
    prop::collection::vec((key, arb_json()), 0..6).prop_map(Json::Obj)
}

/// The tree `Fields` reads, for comparing against `Json::parse`.
fn fields_to_json(fields: &Fields<'_>) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Field::Null => Json::Null,
                    Field::Bool(b) => Json::Bool(*b),
                    Field::Num(n) => Json::Num((*n).to_string()),
                    Field::Str(s) => Json::Str(s.to_string()),
                    Field::Raw(raw) => Json::parse(raw).expect("a raw span is valid JSON"),
                };
                (k.to_string(), v)
            })
            .collect(),
    )
}

/// `Fields::parse` must agree with `Json::parse` on `text`: the same
/// accept/reject result and, when both accept, the same members.
fn agrees(text: &str) -> Result<(), TestCaseError> {
    match (Json::parse(text), Fields::parse(text)) {
        (Ok(tree @ Json::Obj(_)), Ok(fields)) => prop_assert_eq!(fields_to_json(&fields), tree),
        (Ok(Json::Obj(_)), Err(e)) => prop_assert!(false, "fields rejected {text:?}: {e}"),
        (Err(_), Ok(_)) => prop_assert!(false, "fields accepted malformed {text:?}"),
        (Ok(_), Ok(_)) => prop_assert!(false, "fields accepted a non-object {text:?}"),
        (_, Err(_)) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The object writer emits the bytes the tree's `Display` emits for
    /// the same members, escaping included.
    #[test]
    fn writer_matches_tree_display(
        key in arb_string(),
        s in arb_string(),
        n in arb_u64(),
        rows in prop::collection::vec((arb_u64(), arb_u64()), 0..4),
    ) {
        let mut line = String::new();
        let mut w = ObjWriter::open(&mut line);
        w.str(&key, &s).u64("n", n).opt_u64("none", None);
        let mut inner = w.obj(&key);
        inner.u64(&s, n);
        inner.close();
        w.u64_rows("rows", rows.iter().map(|&(x, y)| [x, y]));
        w.close();
        let tree = Json::Obj(vec![
            (key.clone(), Json::str(s.clone())),
            ("n".into(), Json::u64(n)),
            ("none".into(), Json::Null),
            (key, Json::Obj(vec![(s, Json::u64(n))])),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::u64(x), Json::u64(y)]))
                        .collect(),
                ),
            ),
        ]);
        prop_assert_eq!(line, tree.to_string());
    }

    /// u64 members written by the object writer read back exactly,
    /// `u64::MAX` included, through both readers.
    #[test]
    fn writer_u64_roundtrip(n in arb_u64()) {
        let mut line = String::new();
        let mut w = ObjWriter::open(&mut line);
        w.u64("n", n);
        w.close();
        prop_assert_eq!(Fields::parse(&line).unwrap().u64("n"), Some(n));
        prop_assert_eq!(Json::parse(&line).unwrap().get("n").and_then(Json::as_u64), Some(n));
    }

    /// The borrowed reader agrees with the tree parser on every written
    /// object, on every truncation of it, and on bit-flipped copies.
    #[test]
    fn fields_agree_with_tree_parser(
        v in arb_object(),
        flips in prop::collection::vec((any::<u64>(), 0u32..8), 1..4),
    ) {
        let text = v.to_string();
        let fields = Fields::parse(&text).expect("a written object parses");
        prop_assert_eq!(fields_to_json(&fields), v);
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            agrees(&text[..cut])?;
        }
        let mut bytes = text.into_bytes();
        for (at, bit) in flips {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
            if let Ok(flipped) = std::str::from_utf8(&bytes) {
                agrees(flipped)?;
            }
        }
    }
}

#[test]
fn fields_reject_non_objects_and_share_parser_errors() {
    for text in ["[1]", "1", "\"s\"", "null", ""] {
        assert!(Fields::parse(text).is_err(), "accepted {text:?}");
    }
    // Same first-error message as the tree parser for a malformed object.
    for bad in ["{\"a\":}", "{\"a\":1,}", "{\"a\"}", "{\"a\":[1,]}", "{} x"] {
        assert_eq!(
            Fields::parse(bad).unwrap_err(),
            Json::parse(bad).unwrap_err()
        );
    }
    // Duplicate keys resolve to the first member, as `Json::get` does.
    let text = r#"{"k":1,"k":2}"#;
    assert_eq!(Fields::parse(text).unwrap().u64("k"), Some(1));
    // Strings borrow unless they carry an escape.
    let text = r#"{"plain":"abc","escaped":"a\nb"}"#;
    let fields = Fields::parse(text).unwrap();
    assert!(matches!(
        fields.get("plain"),
        Some(Field::Str(std::borrow::Cow::Borrowed("abc")))
    ));
    assert!(
        matches!(fields.get("escaped"), Some(Field::Str(std::borrow::Cow::Owned(s))) if s == "a\nb")
    );
}
