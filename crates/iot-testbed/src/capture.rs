//! On-disk capture layout, mirroring the Mon(IoT)r testbed's data format:
//! one pcap per device MAC plus per-experiment label files describing
//! which packets belong to which labeled interaction (§3.2 "Data
//! collection": "different files for each MAC address … labels (stored in
//! additional pcap files) to isolate the traffic produced during specific
//! interactions").
//!
//! ```text
//! <root>/<lab>/<device-id>/
//!     capture.pcap            # everything the gateway saw from this MAC
//!     labels.tsv              # start_us \t end_us \t label \t rep
//! ```
//!
//! Captures written here round-trip through the byte-exact pcap layer, so
//! external tools (tcpdump, Wireshark, the authors' own analysis scripts)
//! can consume them directly.

use crate::experiment::LabeledExperiment;
use crate::lab::LabSite;
use iot_net::pcap::{Capture, SalvageStats};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One label row: a time range of the device's capture tagged with the
/// experiment label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSpan {
    /// First packet timestamp (µs).
    pub start_micros: u64,
    /// Last packet timestamp (µs).
    pub end_micros: u64,
    /// Experiment label (e.g. `android_wan_on`).
    pub label: String,
    /// Repetition index.
    pub rep: u32,
}

/// Accumulates experiments for one deployment and writes the on-disk
/// layout.
#[derive(Debug, Default)]
pub struct CaptureStore {
    /// (lab, device-id) → the device's time-ordered capture.
    captures: BTreeMap<(LabSite, String), Capture>,
    /// (lab, device-id) → labels.
    labels: BTreeMap<(LabSite, String), Vec<LabelSpan>>,
    /// Running clock per device so consecutive experiments do not overlap.
    clock: BTreeMap<(LabSite, String), u64>,
}

/// Gap inserted between appended experiments (µs).
const EXPERIMENT_GAP: u64 = 30_000_000;

impl CaptureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one experiment's capture, shifting its timestamps onto the
    /// device's running clock (experiments are generated starting at t≈0).
    /// Fails with [`iot_net::Error::TimestampOutOfRange`] when a shifted
    /// timestamp no longer fits the pcap format; the frames before it
    /// stay appended and no label is recorded.
    pub fn append(&mut self, exp: &LabeledExperiment) -> iot_net::Result<()> {
        let device_id = crate::catalog::by_name(exp.device_name)
            .map(|s| s.id())
            .unwrap_or_else(|| exp.device_name.to_ascii_lowercase());
        let key = (exp.site, device_id);
        let base = *self.clock.get(&key).unwrap_or(&0);
        let capture = self.captures.entry(key.clone()).or_default();
        let mut first = None;
        let mut end = base;
        for v in exp.capture.views() {
            let v = v.expect("generated captures are well formed");
            let ts = base + v.ts_micros;
            capture.push(ts, v.data)?;
            first.get_or_insert(ts);
            end = end.max(ts);
        }
        if let Some(start_micros) = first {
            self.labels.entry(key.clone()).or_default().push(LabelSpan {
                start_micros,
                end_micros: end,
                label: exp.label.clone(),
                rep: exp.rep,
            });
        }
        self.clock.insert(key, end + EXPERIMENT_GAP);
        Ok(())
    }

    /// Writes the Mon(IoT)r-style directory under `root`; returns the
    /// paths written.
    pub fn write_to(&self, root: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        for ((site, device_id), capture) in &self.captures {
            let dir = root.join(site.name().to_lowercase()).join(device_id);
            std::fs::create_dir_all(&dir)?;
            let pcap_path = dir.join("capture.pcap");
            std::fs::write(&pcap_path, capture.as_bytes())?;
            written.push(pcap_path);

            let labels_path = dir.join("labels.tsv");
            let mut f = BufWriter::new(File::create(&labels_path)?);
            writeln!(f, "# start_us\tend_us\tlabel\trep")?;
            for span in self.labels.get(&(*site, device_id.clone())).into_iter().flatten() {
                writeln!(
                    f,
                    "{}\t{}\t{}\t{}",
                    span.start_micros, span.end_micros, span.label, span.rep
                )?;
            }
            f.flush()?;
            written.push(labels_path);
        }
        Ok(written)
    }
}

/// Reads a device directory back into (capture, labels, salvage stats).
///
/// The pcap is read to bytes and salvaged ([`Capture::salvage`]): a
/// capture with a torn tail or corrupt record headers — routine for a
/// tcpdump that ran unattended for months — yields every record that can
/// still be framed instead of discarding the whole device directory.
/// `stats.is_pristine()` tells callers whether anything was actually
/// lost. A capture that cannot be framed at all (unknown magic,
/// non-Ethernet link type) fails with the typed [`iot_net::Error`] as the
/// I/O error's inner error, as does a label row that does not parse.
pub fn read_device_dir(dir: &Path) -> std::io::Result<(Capture, Vec<LabelSpan>, SalvageStats)> {
    let bytes = std::fs::read(dir.join("capture.pcap"))?;
    let (capture, stats) = Capture::salvage(&bytes).map_err(std::io::Error::other)?;
    let mut labels = Vec::new();
    let text = std::fs::read_to_string(dir.join("labels.tsv"))?;
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad_row =
            || std::io::Error::other(format!("labels.tsv line {}: bad label row {line:?}", n + 1));
        let mut cols = line.split('\t');
        let (Some(start), Some(end), Some(label), Some(rep)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            return Err(bad_row());
        };
        labels.push(LabelSpan {
            start_micros: start.parse().map_err(|_| bad_row())?,
            end_micros: end.parse().map_err(|_| bad_row())?,
            label: label.to_string(),
            rep: rep.parse().map_err(|_| bad_row())?,
        });
    }
    Ok((capture, labels, stats))
}

/// Slices a capture by a label span (inclusive bounds), the read-side
/// counterpart of the testbed's label isolation.
///
/// Returns the contiguous hull of in-span records: everything from the
/// first to the last record whose timestamp lies in the span. On a
/// monotonic capture this is exactly the span's window; on a degraded
/// capture (fault-injected or real clock skew leaving timestamps
/// non-monotonic, where a binary search silently returns wrong — even
/// inverted — bounds) the hull may also include out-of-span records
/// trapped between in-span ones, which is the right salvage semantics
/// for a mildly skewed clock. Inverted or fully out-of-range spans yield
/// an empty capture — never a panic. The scan is O(n): correctness on
/// damaged inputs is worth more here than a logarithm in a read-side
/// inspection path.
pub fn slice_by_label(capture: &Capture, span: &LabelSpan) -> Capture {
    let views = || capture.views().map(|v| v.expect("writer-clean capture"));
    let mut hull: Option<(usize, usize)> = None;
    for (i, v) in views().enumerate() {
        if v.ts_micros >= span.start_micros && v.ts_micros <= span.end_micros {
            hull = Some((hull.map_or(i, |(first, _)| first), i));
        }
    }
    let mut out = Capture::new();
    if let Some((first, last)) = hull {
        for v in views().skip(first).take(last - first + 1) {
            out.push(v.ts_micros, v.data)
                .expect("timestamps read from a capture fit one");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_interaction, run_power};
    use crate::lab::Lab;
    use iot_geodb::registry::GeoDb;
    use iot_net::packet::Packet;

    fn store_with_experiments() -> (CaptureStore, Vec<LabeledExperiment>) {
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("TP-Link Plug").unwrap();
        let mut store = CaptureStore::new();
        let mut exps = vec![run_power(&db, dev, false, 0, 0)];
        let spec = dev.spec();
        let act = spec.activity("on").unwrap();
        exps.push(run_interaction(&db, dev, act, act.methods[0], false, 0, 0));
        exps.push(run_interaction(&db, dev, act, act.methods[0], false, 1, 0));
        for e in &exps {
            store.append(e).unwrap();
        }
        (store, exps)
    }

    /// A fresh scratch directory for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("intl-iot-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_shifts_clock_monotonically() {
        let (store, exps) = store_with_experiments();
        let key = (LabSite::Us, "tp-link-plug".to_string());
        let packets = store.captures[&key].to_packets();
        for w in packets.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
        assert_eq!(
            packets.len(),
            exps.iter().map(|e| e.packet_count() as usize).sum::<usize>()
        );
        let labels = &store.labels[&key];
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[0].label, "power");
        // Labels do not overlap.
        for w in labels.windows(2) {
            assert!(w[0].end_micros < w[1].start_micros);
        }
    }

    #[test]
    fn disk_roundtrip_and_label_slicing() {
        let (store, exps) = store_with_experiments();
        let dir = scratch_dir("test");
        let written = store.write_to(&dir).unwrap();
        assert_eq!(written.len(), 2, "pcap + labels for one device");

        let device_dir = dir.join("us").join("tp-link-plug");
        let (capture, labels, salvage) = read_device_dir(&device_dir).unwrap();
        assert!(salvage.is_pristine(), "{salvage:?}");
        assert_eq!(&capture, store.captures.values().next().unwrap());
        assert_eq!(labels.len(), 3);
        // Each label slice contains exactly its experiment's packets.
        for (span, exp) in labels.iter().zip(&exps) {
            let slice = slice_by_label(&capture, span);
            assert_eq!(slice.record_count(), exp.packet_count(), "{}", span.label);
            // Payload bytes survive the disk round-trip.
            assert_eq!(slice.to_packets()[0].data, exp.packets()[0].data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slice_bounds() {
        let (store, _) = store_with_experiments();
        let key = (LabSite::Us, "tp-link-plug".to_string());
        let empty = LabelSpan {
            start_micros: u64::MAX - 1,
            end_micros: u64::MAX,
            label: "none".into(),
            rep: 0,
        };
        assert!(slice_by_label(&store.captures[&key], &empty).is_empty());
    }

    fn span(start: u64, end: u64) -> LabelSpan {
        LabelSpan {
            start_micros: start,
            end_micros: end,
            label: "t".into(),
            rep: 0,
        }
    }

    fn cap(ts: &[u64]) -> Capture {
        let packets: Vec<Packet> = ts.iter().map(|&t| Packet::new(t, vec![0u8; 14])).collect();
        Capture::from_packets(&packets).unwrap()
    }

    fn stamps(capture: &Capture) -> Vec<u64> {
        capture.views().map(|v| v.unwrap().ts_micros).collect()
    }

    #[test]
    fn slice_tolerates_inverted_span() {
        assert!(slice_by_label(&cap(&[10, 20, 30]), &span(30, 10)).is_empty());
    }

    #[test]
    fn slice_tolerates_skewed_timestamps() {
        // A clock-skewed capture: packet 25 regressed behind 40. Binary
        // search over this order is meaningless; the hull fallback must
        // still find the in-span packets without panicking.
        let slice = slice_by_label(&cap(&[10, 40, 25, 50, 30, 90]), &span(20, 45));
        // Hull semantics: from first to last in-span packet, inclusive
        // of the out-of-span 50 trapped between them.
        assert_eq!(stamps(&slice), [40, 25, 50, 30]);
    }

    #[test]
    fn slice_finds_packets_binary_search_misses() {
        // Sorted-looking prefix hides the in-span packet from binary
        // search: partition_point lands on an empty window here.
        let slice = slice_by_label(&cap(&[100, 5, 200]), &span(4, 6));
        assert_eq!(stamps(&slice), [5]);
    }

    #[test]
    fn slice_outside_range_is_empty_not_panic() {
        let capture = cap(&[10, 20, 30]);
        assert!(slice_by_label(&capture, &span(0, 5)).is_empty());
        assert!(slice_by_label(&capture, &span(31, 99)).is_empty());
        assert!(slice_by_label(&Capture::new(), &span(0, 5)).is_empty());
        // Straddling spans clamp to the packets that exist.
        assert_eq!(stamps(&slice_by_label(&capture, &span(0, 15))), [10]);
        assert_eq!(stamps(&slice_by_label(&capture, &span(25, 99))), [30]);
    }

    #[test]
    fn lenient_read_survives_torn_capture() {
        let (store, _) = store_with_experiments();
        let dir = scratch_dir("torn");
        store.write_to(&dir).unwrap();
        let device_dir = dir.join("us").join("tp-link-plug");
        // Tear the capture mid-record, as a killed tcpdump would.
        let pcap = device_dir.join("capture.pcap");
        let bytes = std::fs::read(&pcap).unwrap();
        std::fs::write(&pcap, &bytes[..bytes.len() - 7]).unwrap();
        let (capture, labels, salvage) = read_device_dir(&device_dir).unwrap();
        assert!(!salvage.is_pristine());
        assert!(salvage.torn_tail_bytes > 0);
        assert_eq!(labels.len(), 3, "labels are independent of the tear");
        assert!(!capture.is_empty(), "everything before the tear survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record-less pcap global header with `link_type`, in either byte
    /// order (thiszone and sigfigs are zero, so they need no swap).
    fn global_header(link_type: u32, big_endian: bool) -> Vec<u8> {
        let mut h = Capture::new().into_bytes();
        h[20..24].copy_from_slice(&link_type.to_le_bytes());
        if big_endian {
            for field in [0..4, 4..6, 6..8, 16..20, 20..24] {
                h[field].reverse();
            }
        }
        h
    }

    #[test]
    fn read_device_dir_refuses_non_ethernet_link_types() {
        let dir = scratch_dir("linktype");
        let pcap = dir.join("capture.pcap");
        std::fs::write(dir.join("labels.tsv"), "# start_us\tend_us\tlabel\trep\n").unwrap();
        for big_endian in [false, true] {
            // The same header with the Ethernet link type reads fine.
            std::fs::write(&pcap, global_header(1, big_endian)).unwrap();
            let (capture, _, salvage) = read_device_dir(&dir).unwrap();
            assert!(capture.is_empty() && salvage.is_pristine());
            // Raw IP (101) and Linux cooked (113) are refused, typed.
            for link_type in [101, 113] {
                std::fs::write(&pcap, global_header(link_type, big_endian)).unwrap();
                let err = read_device_dir(&dir).unwrap_err();
                let inner = err.get_ref().and_then(|e| e.downcast_ref());
                assert!(
                    matches!(inner, Some(iot_net::Error::UnsupportedLinkType(t)) if *t == link_type),
                    "link type {link_type} (big endian: {big_endian}) must be refused: {err}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_rep_is_refused_naming_the_row() {
        let dir = scratch_dir("rep");
        std::fs::write(dir.join("capture.pcap"), global_header(1, false)).unwrap();
        let row = "10\t20\tpower\t4294967296";
        let labels = format!("# start_us\tend_us\tlabel\trep\n{row}\n");
        std::fs::write(dir.join("labels.tsv"), labels).unwrap();
        let err = read_device_dir(&dir).expect_err("rep must fit a u32, not wrap to 0");
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains(&row.replace('\t', "\\t")), "{msg}");
        // The largest representable rep still reads.
        std::fs::write(dir.join("labels.tsv"), "10\t20\tpower\t4294967295\n").unwrap();
        assert_eq!(read_device_dir(&dir).unwrap().1[0].rep, u32::MAX);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
