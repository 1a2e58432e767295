//! The model registry: everything `--model` can name.
//!
//! A model spec is either a **registry name** ([`MODEL_NAMES`]: the zoo
//! pipelines, or the zoo-free `tiny`/`tiny-sd` test models) or a **path
//! to a `.fpdq` container** written by `fpdq pack`. [`pipeline`] is the
//! only name → pipeline map: `fpdq serve` and every other subcommand
//! build named models through it. Serving resolves in two phases on
//! purpose:
//!
//! 1. [`resolve`] runs on the caller's thread and only decides *what*
//!    to build — an unknown name fails fast, before a server binds, with
//!    an error that lists every valid name;
//! 2. the returned [`ModelBuilder`] runs *inside* the scheduler thread
//!    (packed models hold `Rc` slots and are `!Send`), where a load
//!    failure becomes a boot error that degrades the server instead of
//!    killing it.

use fpdq_container::SimPipeline;
use fpdq_diffusion::{ServeModel, Zoo};
use fpdq_tensor::FpdqError;
use std::path::{Path, PathBuf};

/// Every name [`pipeline`] accepts, in the order help text lists them.
pub const MODEL_NAMES: &[&str] = &["tiny", "tiny-sd", "ddim", "ldm", "sd", "sdxl"];

/// A deferred model constructor, run on the scheduler thread.
pub type ModelBuilder = Box<dyn FnOnce() -> Result<Box<dyn ServeModel>, FpdqError> + Send>;

/// True when `spec` should be treated as a container path rather than a
/// registry name: it looks like a path (separator or `.fpdq` suffix) or
/// an actual file exists there.
pub fn is_container_path(spec: &str) -> bool {
    spec.ends_with(".fpdq")
        || spec.contains(std::path::MAIN_SEPARATOR)
        || spec.contains('/')
        || Path::new(spec).is_file()
}

/// Builds the pipeline a registry name stands for — the one name →
/// pipeline map every `fpdq` subcommand uses. The zoo names train and
/// cache on first use; `tiny`/`tiny-sd` are fixed-seed and untrained.
pub fn pipeline(name: &str) -> Result<SimPipeline, FpdqError> {
    Ok(match name {
        "tiny" => SimPipeline::Ddim(crate::tiny_ddim()),
        "tiny-sd" => SimPipeline::Sd(crate::tiny_sd()),
        "ddim" => SimPipeline::Ddim(Zoo::open_default().ddim_sim()),
        "ldm" => SimPipeline::Ldm(Zoo::open_default().ldm_sim()),
        "sd" => SimPipeline::Sd(Zoo::open_default().sd_sim()),
        "sdxl" => SimPipeline::Sd(Zoo::open_default().sdxl_sim()),
        other => return Err(unknown_model(other)),
    })
}

fn unknown_model(name: &str) -> FpdqError {
    FpdqError::missing(format!(
        "unknown model '{name}': expected one of {} or a path to a .fpdq container",
        MODEL_NAMES.join(", ")
    ))
}

/// Resolves a model spec to a builder, or fails with an error listing
/// the registry names. The builder itself can still fail later (missing
/// file, corrupt container) — that failure is the *server's* to absorb.
pub fn resolve(spec: &str) -> Result<ModelBuilder, FpdqError> {
    if is_container_path(spec) {
        let path = PathBuf::from(spec);
        return Ok(Box::new(move || load_container(&path)));
    }
    if !MODEL_NAMES.contains(&spec) {
        return Err(unknown_model(spec));
    }
    let name = spec.to_string();
    Ok(Box::new(move || Ok(pipeline(&name)?.into_model())))
}

/// Loads a `.fpdq` container and adapts its pipeline for serving. Must
/// run on the thread that will own the model: loading installs the
/// packed execution slots (`Rc`-held, `!Send`). An sd container carries
/// everything serving needs: the packed U-Net plus the full-precision
/// tokenizer, text encoder and autoencoder (TEXT_PARAMS / AE_PARAMS
/// sections).
pub fn load_container(path: &Path) -> Result<Box<dyn ServeModel>, FpdqError> {
    Ok(fpdq_container::load(path)?.pipeline.into_model())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_list_the_registry() {
        let Err(err) = resolve("gpt5") else { panic!("unknown name resolved") };
        let msg = err.to_string();
        for name in MODEL_NAMES {
            assert!(msg.contains(name), "error must list '{name}': {msg}");
        }
        assert!(matches!(err, FpdqError::MissingInput(_)));
    }

    #[test]
    fn known_names_resolve_and_paths_defer() {
        for name in MODEL_NAMES {
            assert!(resolve(name).is_ok(), "registry name '{name}' must resolve");
        }
        // Paths resolve eagerly (building is what fails later).
        let Ok(builder) = resolve("/nonexistent/model.fpdq") else {
            panic!("paths must resolve eagerly")
        };
        let Err(err) = builder() else { panic!("missing file must fail to build") };
        assert!(matches!(err, FpdqError::Io(_)), "{err}");
    }

    #[test]
    fn tiny_names_build_their_pipeline_kinds() {
        use fpdq_container::PipelineKind;
        assert_eq!(pipeline("tiny").unwrap().kind(), PipelineKind::Ddim);
        assert_eq!(pipeline("tiny-sd").unwrap().kind(), PipelineKind::Sd);
        assert!(matches!(pipeline("gpt5"), Err(FpdqError::MissingInput(_))));
    }

    #[test]
    fn path_heuristic() {
        assert!(is_container_path("model.fpdq"));
        assert!(is_container_path("target/zoo/ddim.fpdq"));
        assert!(is_container_path("./tiny"));
        assert!(!is_container_path("tiny"));
        assert!(!is_container_path("ddim"));
    }
}
