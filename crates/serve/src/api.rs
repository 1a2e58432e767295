//! Wire types for the serving API, with hand-written JSON conversions
//! (the compat `serde` has no derive machinery — see its crate docs).
//!
//! Pixels travel as `pixels_hex`: the image's `f32`s in little-endian
//! byte order, hex-encoded. Hex costs 8 chars per float but is *exact* —
//! the robustness tests compare served images byte-for-byte against
//! offline pipeline runs, so the wire format must not round.

use serde::json::{JsonError, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Builds an object [`Value`] from (key, value) pairs.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>())
}

/// Extracts a required field or errors with the field name.
fn required<'v>(value: &'v Value, key: &str) -> Result<&'v Value, JsonError> {
    value.get(key).ok_or_else(|| JsonError::new(format!("missing field '{key}'")))
}

/// Extracts an optional typed field.
fn optional<T: Deserialize>(value: &Value, key: &str) -> Result<Option<T>, JsonError> {
    value.get(key).map(T::from_value).transpose()
}

/// Hex-encodes `f32`s as little-endian bytes (lowercase digits), two
/// table lookups per byte into a buffer sized once.
pub fn pixels_to_hex(data: &[f32]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        for b in v.to_le_bytes() {
            out.push(DIGITS[usize::from(b >> 4)]);
            out.push(DIGITS[usize::from(b & 15)]);
        }
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes a [`pixels_to_hex`] string back into `f32`s.
pub fn pixels_from_hex(hex: &str) -> Result<Vec<f32>, JsonError> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(8) {
        return Err(JsonError::new("pixels_hex length must be a multiple of 8"));
    }
    let nibble = |b: u8| -> Result<u8, JsonError> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(JsonError::new("invalid hex digit in pixels_hex")),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 8);
    for chunk in bytes.chunks_exact(8) {
        let mut le = [0u8; 4];
        for (i, pair) in chunk.chunks_exact(2).enumerate() {
            le[i] = (nibble(pair[0])? << 4) | nibble(pair[1])?;
        }
        out.push(f32::from_le_bytes(le));
    }
    Ok(out)
}

/// `POST /v1/generate` request body.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateRequest {
    /// Per-image seed; with `prompt` fixed, the sole source of image
    /// content.
    pub seed: u64,
    /// DDIM steps (validated against the model's schedule on admission).
    pub steps: usize,
    /// Conditioning prompt, encoded once at admission. Only valid for
    /// conditional models (`sd` pipelines); the unconditional pipelines
    /// reject it with `invalid_argument`.
    pub prompt: Option<String>,
    /// Classifier-free guidance scale override; requires `prompt`.
    /// Defaults to the model's packed guidance scale.
    pub guidance: Option<f32>,
    /// Optional per-request deadline; expiry evicts the request at the
    /// next step boundary.
    pub deadline_ms: Option<u64>,
    /// Opaque tag matched by the fault-injection plan (test-only knob;
    /// harmless in production requests).
    pub fault_tag: Option<String>,
}

impl GenerateRequest {
    /// An unconditional request (the pre-prompt wire shape).
    pub fn unconditional(seed: u64, steps: usize) -> GenerateRequest {
        GenerateRequest {
            seed,
            steps,
            prompt: None,
            guidance: None,
            deadline_ms: None,
            fault_tag: None,
        }
    }
}

impl Serialize for GenerateRequest {
    fn to_value(&self) -> Value {
        obj(vec![
            ("seed", self.seed.to_value()),
            ("steps", self.steps.to_value()),
            ("prompt", self.prompt.to_value()),
            ("guidance", self.guidance.to_value()),
            ("deadline_ms", self.deadline_ms.to_value()),
            ("fault_tag", self.fault_tag.to_value()),
        ])
    }
}

impl Deserialize for GenerateRequest {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Ok(GenerateRequest {
            seed: u64::from_value(required(value, "seed")?)?,
            steps: usize::from_value(required(value, "steps")?)?,
            prompt: optional(value, "prompt")?,
            guidance: optional(value, "guidance")?,
            deadline_ms: optional(value, "deadline_ms")?,
            fault_tag: optional(value, "fault_tag")?,
        })
    }
}

/// `POST /v1/generate` success body.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateResponse {
    /// Echo of the request seed.
    pub seed: u64,
    /// Echo of the request steps.
    pub steps: usize,
    /// Image dims `[1, c, h, w]`.
    pub dims: Vec<usize>,
    /// The image, hex-encoded (see [`pixels_to_hex`]).
    pub pixels_hex: String,
}

impl Serialize for GenerateResponse {
    fn to_value(&self) -> Value {
        obj(vec![
            ("seed", self.seed.to_value()),
            ("steps", self.steps.to_value()),
            ("dims", self.dims.to_value()),
            ("pixels_hex", self.pixels_hex.to_value()),
        ])
    }
}

impl Deserialize for GenerateResponse {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Ok(GenerateResponse {
            seed: u64::from_value(required(value, "seed")?)?,
            steps: usize::from_value(required(value, "steps")?)?,
            dims: Vec::from_value(required(value, "dims")?)?,
            pixels_hex: String::from_value(required(value, "pixels_hex")?)?,
        })
    }
}

/// Error body every non-2xx response carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable code (`queue_full`, `deadline_exceeded`,
    /// `engine_panic`, `invalid_argument`, `draining`, `bad_request`).
    pub code: String,
    /// Human-readable detail.
    pub error: String,
    /// Steps completed before the failure, when the request was admitted.
    pub steps_done: Option<usize>,
}

impl Serialize for ErrorBody {
    fn to_value(&self) -> Value {
        obj(vec![
            ("code", self.code.to_value()),
            ("error", self.error.to_value()),
            ("steps_done", self.steps_done.to_value()),
        ])
    }
}

impl Deserialize for ErrorBody {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Ok(ErrorBody {
            code: String::from_value(required(value, "code")?)?,
            error: String::from_value(required(value, "error")?)?,
            steps_done: optional(value, "steps_done")?,
        })
    }
}

/// `GET /healthz` body: liveness counters plus the lifecycle state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Healthz {
    /// `starting` | `ready` | `failed` | `draining` | `stopped`.
    pub state: String,
    /// Requests currently inside the step loop.
    pub active: u64,
    /// Requests admitted but not yet active.
    pub queued: u64,
    /// Total engine steps executed (monotone liveness heartbeat).
    pub steps: u64,
    /// Scheduler loop iterations (advances even when idle).
    pub ticks: u64,
    /// Requests finished successfully.
    pub completed: u64,
    /// Requests failed by an engine panic.
    pub failed: u64,
    /// Requests evicted by their deadline.
    pub evicted: u64,
    /// Requests rejected by backpressure (429s).
    pub rejected: u64,
}

impl Serialize for Healthz {
    fn to_value(&self) -> Value {
        obj(vec![
            ("state", self.state.to_value()),
            ("active", self.active.to_value()),
            ("queued", self.queued.to_value()),
            ("steps", self.steps.to_value()),
            ("ticks", self.ticks.to_value()),
            ("completed", self.completed.to_value()),
            ("failed", self.failed.to_value()),
            ("evicted", self.evicted.to_value()),
            ("rejected", self.rejected.to_value()),
        ])
    }
}

impl Deserialize for Healthz {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Ok(Healthz {
            state: String::from_value(required(value, "state")?)?,
            active: u64::from_value(required(value, "active")?)?,
            queued: u64::from_value(required(value, "queued")?)?,
            steps: u64::from_value(required(value, "steps")?)?,
            ticks: u64::from_value(required(value, "ticks")?)?,
            completed: u64::from_value(required(value, "completed")?)?,
            failed: u64::from_value(required(value, "failed")?)?,
            evicted: u64::from_value(required(value, "evicted")?)?,
            rejected: u64::from_value(required(value, "rejected")?)?,
        })
    }
}

/// `GET /metrics` body: the full [`Healthz`] counter set (flattened on
/// the wire) plus the boot error of a [`failed`](Healthz::state) server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metrics {
    /// Lifecycle state and every `ServeShared` counter.
    pub health: Healthz,
    /// Why the model never came up (`state == "failed"` only).
    pub boot_error: Option<String>,
}

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        let Value::Object(mut fields) = self.health.to_value() else {
            unreachable!("Healthz serializes to an object")
        };
        fields.insert("boot_error".to_string(), self.boot_error.to_value());
        Value::Object(fields)
    }
}

impl Deserialize for Metrics {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Ok(Metrics {
            health: Healthz::from_value(value)?,
            boot_error: optional(value, "boot_error")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip_is_bit_exact() {
        let data = vec![0.0f32, -1.5, f32::MIN_POSITIVE, 1.0e-38, 1.2345678, -0.0];
        let back = pixels_from_hex(&pixels_to_hex(&data)).unwrap();
        assert_eq!(
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(pixels_from_hex("0011").is_err());
        assert!(pixels_from_hex("0011223x").is_err());
    }

    #[test]
    fn hex_digits_match_format_for_every_byte() {
        for b in 0..=255u8 {
            let v = f32::from_le_bytes([b, 0x5a, b.wrapping_mul(7), 0xff]);
            let want: String = v.to_le_bytes().iter().map(|x| format!("{x:02x}")).collect();
            assert_eq!(pixels_to_hex(&[v]), want, "byte {b:#04x}");
        }
    }

    #[test]
    fn request_roundtrip_and_missing_fields() {
        let req = GenerateRequest {
            prompt: Some("a red square".to_string()),
            guidance: Some(3.5),
            deadline_ms: Some(250),
            fault_tag: Some("boom".to_string()),
            ..GenerateRequest::unconditional(7, 4)
        };
        let back: GenerateRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
        // Optional fields may be absent entirely.
        let min: GenerateRequest = serde_json::from_str(r#"{"seed":1,"steps":2}"#).unwrap();
        assert_eq!(min, GenerateRequest::unconditional(1, 2));
        // Missing required fields fail with the field name.
        let err = serde_json::from_str::<GenerateRequest>(r#"{"steps":2}"#).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        // Wrong types fail.
        assert!(serde_json::from_str::<GenerateRequest>(r#"{"seed":-1,"steps":2}"#).is_err());
        assert!(serde_json::from_str::<GenerateRequest>(r#"{"seed":1,"steps":"2"}"#).is_err());
        assert!(
            serde_json::from_str::<GenerateRequest>(r#"{"seed":1,"steps":2,"prompt":7}"#).is_err()
        );
        assert!(serde_json::from_str::<GenerateRequest>(
            r#"{"seed":1,"steps":2,"guidance":"high"}"#
        )
        .is_err());
    }

    #[test]
    fn guidance_survives_the_wire_bit_exactly() {
        // f32 → f64 JSON number → shortest-round-trip text → f32 is
        // lossless; a served guidance scale must match the offline one
        // exactly or the CFG mix (and thus the image bytes) drifts.
        for g in [1.0f32, 1.5, 3.3, 7.5, f32::MIN_POSITIVE] {
            let req = GenerateRequest {
                guidance: Some(g),
                prompt: Some("p".to_string()),
                ..GenerateRequest::unconditional(1, 2)
            };
            let back: GenerateRequest =
                serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
            assert_eq!(back.guidance.unwrap().to_bits(), g.to_bits());
        }
    }

    #[test]
    fn response_and_error_roundtrip() {
        let resp = GenerateResponse {
            seed: 1,
            steps: 2,
            dims: vec![1, 3, 8, 8],
            pixels_hex: pixels_to_hex(&[1.0, -2.0]),
        };
        let back: GenerateResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        let err = ErrorBody {
            code: "engine_panic".to_string(),
            error: "injected".to_string(),
            steps_done: Some(3),
        };
        let back: ErrorBody = serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn metrics_roundtrip_carries_the_boot_error() {
        let m = Metrics {
            health: Healthz {
                state: "failed".to_string(),
                active: 0,
                queued: 0,
                steps: 0,
                ticks: 3,
                completed: 0,
                failed: 0,
                evicted: 0,
                rejected: 2,
            },
            boot_error: Some("container is corrupt".to_string()),
        };
        let text = serde_json::to_string(&m).unwrap();
        // Flattened: the counters and the boot error share one object.
        assert!(text.contains(r#""ticks":3"#), "{text}");
        assert!(text.contains(r#""boot_error":"container is corrupt""#), "{text}");
        let back: Metrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        // A healthy server reports null without losing the field.
        let healthy = Metrics { boot_error: None, ..m };
        let back: Metrics =
            serde_json::from_str(&serde_json::to_string(&healthy).unwrap()).unwrap();
        assert_eq!(back, healthy);
    }
}
