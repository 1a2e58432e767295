//! End-to-end bit-identity: sampling from a container-loaded model must
//! equal sampling from the in-process quantized+packed model it was
//! saved from, byte for byte, for every deployed format family. Run
//! under `FPDQ_FORCE_SCALAR=1` and under AVX2 (the CI matrix does both),
//! the same property pins the contract across ISAs.

mod common;

use bytes::Bytes;
use fpdq_container::{container_bytes, load, load_bytes, save, SimPipeline};
use fpdq_core::PtqConfig;
use fpdq_kernels::pack_unet;
use fpdq_tensor::Tensor;

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape drift");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

fn roundtrip_ddim(cfg: PtqConfig, what: &str) {
    let (pipeline, report) = common::ddim_fixture(cfg);
    let image = container_bytes(&pipeline, &report).unwrap();

    let SimPipeline::Ddim(p) = &pipeline else { unreachable!() };
    let pack = pack_unet(&p.unet, &report);
    assert!(!pack.layers.is_empty(), "{what}: nothing packed in-process");
    let want = p.generate_seeded(&[41, 42], 4, 2);

    let loaded = load_bytes(Bytes::from(image)).unwrap();
    assert_eq!(loaded.pack.layers.len(), pack.layers.len(), "{what}: layer count");
    assert_eq!(loaded.pack.payload_bytes(), pack.payload_bytes(), "{what}: payload bytes");
    assert_eq!(
        loaded.pack.fused_act_layers(),
        pack.fused_act_layers(),
        "{what}: fused-layer count must survive the roundtrip"
    );
    assert_eq!(
        loaded.pack.fused_act_layers(),
        loaded.pack.layers.len(),
        "{what}: every loaded layer, split ones included, must quantize in its kernel"
    );
    let SimPipeline::Ddim(q) = &loaded.pipeline else { panic!("{what}: wrong pipeline kind") };
    let got = q.generate_seeded(&[41, 42], 4, 2);
    assert_bits_eq(&got, &want, what);
}

#[test]
fn ddim_fp4_bit_identity() {
    roundtrip_ddim(PtqConfig::fp(4, 4), "fp4");
}

#[test]
fn ddim_fp8_bit_identity() {
    roundtrip_ddim(PtqConfig::fp(8, 8), "fp8");
}

#[test]
fn ddim_int4_bit_identity() {
    roundtrip_ddim(PtqConfig::int(4, 4), "int4");
}

#[test]
fn ddim_int8_bit_identity() {
    roundtrip_ddim(PtqConfig::int(8, 8), "int8");
}

#[test]
fn ldm_fp8_bit_identity() {
    let (pipeline, report) = common::ldm_fixture(PtqConfig::fp(8, 8));
    let image = container_bytes(&pipeline, &report).unwrap();
    let SimPipeline::Ldm(p) = &pipeline else { unreachable!() };
    pack_unet(&p.unet, &report);
    let want = p.generate_seeded(&[7, 8, 9], 3, 2);
    let loaded = load_bytes(Bytes::from(image)).unwrap();
    let SimPipeline::Ldm(q) = &loaded.pipeline else { panic!("wrong kind") };
    assert_eq!(q.latent_scale, p.latent_scale);
    assert_bits_eq(&q.generate_seeded(&[7, 8, 9], 3, 2), &want, "ldm fp8");
}

#[test]
fn sd_int8_bit_identity() {
    let (pipeline, report) = common::sd_fixture(PtqConfig::int(8, 8));
    let image = container_bytes(&pipeline, &report).unwrap();
    let SimPipeline::Sd(p) = &pipeline else { unreachable!() };
    pack_unet(&p.unet, &report);
    let prompts =
        vec!["a red ball in a dark room".to_string(), "a blue box in a bright room".to_string()];
    let want = p.generate_seeded(&prompts, &[5, 6], 3, 2);
    let loaded = load_bytes(Bytes::from(image)).unwrap();
    assert_eq!(loaded.pack.fused_act_layers(), loaded.pack.layers.len(), "sd int8: all fused");
    let SimPipeline::Sd(q) = &loaded.pipeline else { panic!("wrong kind") };
    assert_eq!(q.guidance, p.guidance);
    assert_bits_eq(&q.generate_seeded(&prompts, &[5, 6], 3, 2), &want, "sd int8");
}

#[test]
fn save_is_crash_safe_and_loadable_from_disk() {
    let dir = std::env::temp_dir().join("fpdq-container-save-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.fpdq");
    // Pre-existing garbage at the target must be replaced atomically.
    std::fs::write(&path, b"not a container").unwrap();

    let (pipeline, report) = common::ddim_fixture(PtqConfig::fp(8, 8));
    save(&path, &pipeline, &report).unwrap();
    assert!(!path.with_file_name("model.fpdq.tmp").exists(), "temp file must not survive");

    let loaded = load(&path).unwrap();
    assert!(!loaded.pack.layers.is_empty());
    let SimPipeline::Ddim(q) = &loaded.pipeline else { panic!("wrong kind") };

    let SimPipeline::Ddim(p) = &pipeline else { unreachable!() };
    pack_unet(&p.unet, &report);
    assert_bits_eq(&q.generate_seeded(&[3], 3, 1), &p.generate_seeded(&[3], 3, 1), "disk");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_loads_share_one_buffer_and_agree() {
    // N workers, one read-only mapping: loads from clones of the same
    // `Bytes` buffer alias the same allocation and sample identically.
    let (pipeline, report) = common::ddim_fixture(PtqConfig::int(4, 4));
    let data = Bytes::from(container_bytes(&pipeline, &report).unwrap());
    let a = load_bytes(data.clone()).unwrap();
    let b = load_bytes(data.clone()).unwrap();
    assert!(a.pack.payload_bytes() > 0);
    let SimPipeline::Ddim(pa) = &a.pipeline else { panic!() };
    let SimPipeline::Ddim(pb) = &b.pipeline else { panic!() };
    assert_bits_eq(&pa.generate_seeded(&[1], 2, 1), &pb.generate_seeded(&[1], 2, 1), "shared");
}

#[test]
fn loaded_meta_reflects_the_report() {
    let (pipeline, report) = common::ddim_fixture(PtqConfig::fp(4, 4));
    let data = Bytes::from(container_bytes(&pipeline, &report).unwrap());
    let loaded = load_bytes(data).unwrap();
    let packed_in_report = report.layers.iter().filter(|l| l.weight_format.is_some()).count();
    let entries_with_weights =
        loaded.meta.layers.iter().filter(|l| l.weight_format.is_some()).count();
    assert_eq!(entries_with_weights, packed_in_report);
    for entry in &loaded.meta.layers {
        let rep = report.layers.iter().find(|l| l.name == entry.name).unwrap();
        assert_eq!(entry.weight_format, rep.weight_format, "{}", entry.name);
        assert_eq!(entry.act_format, rep.act_format, "{}", entry.name);
        assert_eq!(entry.act_format_skip, rep.act_format_skip, "{}", entry.name);
    }
}
