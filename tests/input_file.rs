//! Hostile µSKU input files: every repeated key and every knob listed twice
//! is a parse error that names its line, instead of silently overwriting an
//! earlier value or sweeping (and crediting) one knob twice.

use softsku::usku::{InputFile, UskuError};

fn error_line(text: &str) -> usize {
    match InputFile::parse(text) {
        Err(UskuError::InputParse { line, .. }) => line,
        other => panic!("expected an input-parse error for {text:?}, got {other:?}"),
    }
}

#[test]
fn a_knob_listed_twice_is_rejected_on_its_line() {
    assert_eq!(error_line("microservice = web\nknobs = thp, thp\n"), 2);
    assert_eq!(
        error_line("# header\nmicroservice = web\nknobs = cdp, THP , shp, thp\n"),
        3
    );
}

#[test]
fn every_repeated_key_is_rejected_on_its_second_line() {
    let cases = [
        ("microservice = web\nmicroservice = ads1\n", 2),
        (
            "microservice = web\nplatform = skylake18\nplatform = skylake18\n",
            3,
        ),
        (
            "microservice = web\nsweep = independent\nsweep = exhaustive\n",
            3,
        ),
        ("microservice = web\nknobs = thp\nknobs = shp\n", 3),
        ("microservice = web\nmetric = mips\n\nmetric = qps\n", 4),
        ("seed = 1\nmicroservice = web\nseed = 2\n", 3),
    ];
    for (text, line) in cases {
        assert_eq!(error_line(text), line, "{text:?}");
    }
}

#[test]
fn distinct_keys_and_knobs_still_parse() {
    let input =
        InputFile::parse("microservice = web\nknobs = thp, shp\nmetric = qps\nseed = 7\n").unwrap();
    assert_eq!(input.knobs.map(|k| k.len()), Some(2));
    assert_eq!(input.seed, 7);
}
