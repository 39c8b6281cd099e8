//! Wire protocol for `simserved`: length-prefixed JSON frames over a
//! Unix stream socket.
//!
//! Every frame is a big-endian `u32` byte count followed by that many
//! bytes of UTF-8 JSON. Requests carry a client-chosen `id` echoed on
//! every response so a client can pipeline. Operations:
//!
//! | op         | request fields | responses                               |
//! |------------|----------------|-----------------------------------------|
//! | `sim`      | `cell`         | one `{id, ok, result}`                  |
//! | `batch`    | `cells`        | one `{id, ok, item, result}` per cell as it completes (streamed, any order), then `{id, ok, done: true}` |
//! | `ping`     | —              | `{id, ok}`                              |
//! | `stats`    | —              | `{id, ok, stats}`                       |
//! | `shutdown` | —              | `{id, ok}`, then the daemon exits       |
//!
//! Errors come back as `{id, ok: false, error}`; for batches a failed
//! cell produces an error frame carrying its `item` index while other
//! cells keep streaming.

use std::io::{self, Read, Write};

use arc_core::passes::PassPipeline;
use arc_core::technique::Technique;
use gpu_sim::telemetry::{KernelTelemetry, TelemetryConfig};
use gpu_sim::{GpuConfig, KernelReport};
use serde::{Deserialize, Serialize};
use warp_trace::KernelTrace;

use crate::store::StoreStats;

/// Refuse frames above this size (a corrupt length prefix would
/// otherwise ask us to allocate gigabytes).
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// One simulation cell on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireCell {
    /// GPU model.
    pub config: GpuConfig,
    /// Technique (typed; same serde form as the registry).
    pub technique: Technique,
    /// Full kernel trace, inline.
    pub trace: KernelTrace,
    /// Apply the technique's trace rewrite before simulating (true for
    /// gradcomp kernels, false for forward/loss kernels).
    pub rewrite: bool,
    /// Telemetry sampling config, if sampled output is wanted.
    pub telemetry: Option<TelemetryConfig>,
    /// Also render the chrome-trace export.
    pub want_chrome: bool,
    /// Optimizer pass pipeline applied before the technique rewrite.
    /// Defaults to empty so frames from pre-pipeline clients still
    /// parse (and mean exactly what they used to).
    #[serde(default)]
    pub passes: PassPipeline,
    /// Frame-pipeline stage name, if the cell is one stage of a
    /// multi-kernel frame. Defaults to `None` so frames from pre-frame
    /// clients still parse; `None` and legacy stage names key
    /// identically (see `key::store_key_staged`).
    #[serde(default)]
    pub stage: Option<String>,
}

/// A request frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed on every response.
    pub id: u64,
    /// Operation: `sim`, `batch`, `ping`, `stats`, or `shutdown`.
    pub op: String,
    /// The cell for `sim`.
    #[serde(default)]
    pub cell: Option<WireCell>,
    /// The cells for `batch`.
    #[serde(default)]
    pub cells: Option<Vec<WireCell>>,
}

/// A cell result on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireResult {
    /// The kernel report.
    pub report: KernelReport,
    /// Telemetry, iff requested.
    pub telemetry: Option<KernelTelemetry>,
    /// Chrome-trace JSON, iff requested.
    pub chrome: Option<String>,
    /// Served from the result store without simulating.
    pub cached: bool,
}

/// A response frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireResponse {
    /// Correlation id from the request.
    pub id: u64,
    /// False iff this frame reports an error.
    pub ok: bool,
    /// Batch item index this frame answers, if any.
    #[serde(default)]
    pub item: Option<u64>,
    /// Marks the final frame of a batch.
    #[serde(default)]
    pub done: bool,
    /// Payload for `sim` / `batch` item frames.
    #[serde(default)]
    pub result: Option<WireResult>,
    /// Store counters for `stats`.
    #[serde(default)]
    pub stats: Option<StoreStats>,
    /// Human-readable error when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
}

impl WireResponse {
    /// A bare `{id, ok: true}` acknowledgement.
    pub fn ack(id: u64) -> Self {
        WireResponse {
            id,
            ok: true,
            item: None,
            done: false,
            result: None,
            stats: None,
            error: None,
        }
    }

    /// An error frame.
    pub fn err(id: u64, item: Option<u64>, msg: impl Into<String>) -> Self {
        WireResponse {
            id,
            ok: false,
            item,
            done: false,
            result: None,
            stats: None,
            error: Some(msg.into()),
        }
    }
}

/// Serialize `value` and write it as one frame.
///
/// The JSON is written once, into a buffer that starts with the 4-byte
/// length slot (patched in once the length is known), and the whole
/// frame goes out in one `write_all`.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, value: &T) -> io::Result<()> {
    // Four NULs keep the buffer valid UTF-8 while the writer fills it.
    let mut json = serde::Writer::new("\0\0\0\0".to_string(), false);
    value.serialize(&mut json);
    let mut frame = json.into_string().into_bytes();
    let len = u32::try_from(frame.len() - 4)
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame and deserialize it. `Ok(None)` means the peer closed
/// the stream cleanly between frames.
///
/// The length prefix is untrusted: the body buffer grows only as bytes
/// actually arrive, so a forged prefix costs nothing until the peer
/// sends that much data.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut buf = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut buf)?;
    if buf.len() < len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated at {} of {len} bytes", buf.len()),
        ));
    }
    let text = String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    let value = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_with_a_patched_length() {
        let req = WireRequest {
            id: 7,
            op: "ping".to_string(),
            cell: None,
            cells: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(buf[..4], (json.len() as u32).to_be_bytes());
        assert_eq!(&buf[4..], json.as_bytes());
        let back: WireRequest = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((back.id, back.op), (7, "ping".to_string()));
        // A clean close between frames.
        assert!(read_frame::<_, WireRequest>(&mut &buf[buf.len()..])
            .unwrap()
            .is_none());
    }

    #[test]
    fn forged_length_prefix_is_a_truncation_not_an_allocation() {
        /// Records the largest buffer the frame reader asks it to fill.
        struct Recording<'a> {
            data: &'a [u8],
            largest: usize,
        }
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.data.read(buf)
            }
        }

        // A 256 MiB prefix, then 10 bytes and EOF.
        let mut bytes = MAX_FRAME_BYTES.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"{\"id\":1,\"o");
        let mut r = Recording {
            data: &bytes,
            largest: 0,
        };
        let err = read_frame::<_, WireRequest>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.largest < 1 << 16,
            "the reader offered a {} byte buffer for 10 bytes of data",
            r.largest
        );

        let mut over = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        over.extend_from_slice(b"{}");
        let err = read_frame::<_, WireRequest>(&mut over.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
