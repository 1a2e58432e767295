//! The ten zoo-free containers (`tiny` and `tiny-sd` × the five configs)
//! are pinned byte for byte: `fpdq pack` must write files whose 64-bit
//! FNV-1a digests equal the constants below. A refactor of the PTQ
//! pipeline, the activation taps or the packed encoding that moves one
//! byte of a container fails here.
//!
//! Ignored by default (ten quantize-and-pack runs); run it in release:
//!
//! ```sh
//! cargo test --release -q --test container_digests -- --ignored
//! ```

use std::process::Command;

/// `(model, config, FNV-1a 64 digest of the packed container)`.
const PINNED: [(&str, &str, u64); 10] = [
    ("tiny", "fp8", 0x7b56_cd1a_55aa_93c9),
    ("tiny", "fp4", 0x4ea0_0ac8_ba69_16ae),
    ("tiny", "fp4-norl", 0xf114_82fc_ad8e_abd9),
    ("tiny", "int8", 0xa49b_983f_815d_0b5c),
    ("tiny", "int4", 0x892b_1c32_078b_cc62),
    ("tiny-sd", "fp8", 0x29bf_f0d6_90fe_0134),
    ("tiny-sd", "fp4", 0xa278_0430_cded_ce2d),
    ("tiny-sd", "fp4-norl", 0x99e8_df74_71f7_e86f),
    ("tiny-sd", "int8", 0xe47f_677c_9a3d_273d),
    ("tiny-sd", "int4", 0x2f78_ee2d_c350_b8ec),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
#[ignore = "ten quantize-and-pack runs; run in release"]
fn zoo_free_containers_are_pinned_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("fpdq-container-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut moved = Vec::new();
    for (model, config, want) in PINNED {
        let path = dir.join(format!("{model}-{config}.fpdq"));
        let out = Command::new(env!("CARGO_BIN_EXE_fpdq"))
            .args(["pack", "--model", model, "--config", config, "--out"])
            .arg(&path)
            .output()
            .expect("run fpdq pack");
        assert!(out.status.success(), "{model} {config}: {}", String::from_utf8_lossy(&out.stderr));
        let got = fnv1a(&std::fs::read(&path).expect("read container"));
        if got != want {
            moved.push(format!("{model} {config}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(moved.is_empty(), "container bytes moved:\n{}", moved.join("\n"));
}
