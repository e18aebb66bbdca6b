//! The Internet checksum (RFC 1071) used by IPv4, TCP, and UDP.

use std::net::Ipv4Addr;

/// Incremental one's-complement sum accumulator.
///
/// Feed it header/payload slices (and, for TCP/UDP, the pseudo-header) and
/// call [`Checksum::finish`] to obtain the 16-bit checksum value. Words are
/// summed into a `u64`, so carries cannot overflow before `finish` folds
/// them (that would take 2^48 words).
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u64,
    /// Carries a dangling odd byte between `push` calls.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a slice of bytes to the running sum.
    pub fn push(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            let Some((&lo, rest)) = data.split_first() else {
                self.pending = Some(hi);
                return;
            };
            self.add_word(u16::from_be_bytes([hi, lo]));
            data = rest;
        }
        let words = data.chunks_exact(2);
        if let [odd] = words.remainder() {
            self.pending = Some(*odd);
        }
        self.sum += words
            .map(|w| u64::from(u16::from_be_bytes([w[0], w[1]])))
            .sum::<u64>();
    }

    /// Adds a single big-endian 16-bit word.
    pub fn push_u16(&mut self, word: u16) {
        debug_assert!(self.pending.is_none(), "push_u16 on odd boundary");
        self.add_word(word);
    }

    /// Adds the TCP/UDP pseudo-header for the given addresses, protocol, and
    /// transport segment length.
    pub fn push_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        self.push(&src.octets());
        self.push(&dst.octets());
        self.push_u16(u16::from(proto));
        self.push_u16(len);
    }

    fn add_word(&mut self, word: u16) {
        self.sum += u64::from(word);
    }

    /// Folds carries and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.add_word(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum over a single buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071 §3 worked example.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // Checksum of [0xab] == checksum of [0xab, 0x00].
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn split_push_equals_single_push() {
        let data: Vec<u8> = (0u8..=200).collect();
        for split in [0usize, 1, 3, 100, 199, 201] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), checksum(&data), "split at {split}");
        }
    }

    #[test]
    fn verifying_includes_checksum_yields_zero() {
        // A buffer whose checksum field is filled in sums to 0 when the
        // checksum is included — the standard verification procedure.
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11, 0, 0];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn pseudo_header_changes_sum() {
        let mut a = Checksum::new();
        a.push_pseudo_header(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 6, 20);
        let mut b = Checksum::new();
        b.push_pseudo_header(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 3), 6, 20);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    /// 70,000 words of `0xffff` overflow a `u32` sum; the one's-complement
    /// sum of all-ones words is `0xffff`, so the checksum is zero.
    #[test]
    fn long_all_ones_buffer_does_not_overflow() {
        assert_eq!(checksum(&[0xFF; 140_000]), 0);
    }

    /// Byte-at-a-time reference: even offsets are high bytes, odd offsets
    /// low bytes, folded once at the end.
    fn reference(data: &[u8]) -> u16 {
        let mut sum: u64 = data
            .iter()
            .enumerate()
            .map(|(i, &b)| u64::from(b) << (8 * (1 - i % 2)))
            .sum();
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn word_sum_matches_bytewise_reference_over_random_splits() {
        let mut rng = iot_core::rng::StdRng::seed_from_u64(0xC5);
        for _ in 0..200 {
            let len = rng.gen_range(0..3_000usize) | rng.gen_range(0..2usize);
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            let mut splits: Vec<usize> = (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..=len))
                .collect();
            splits.sort_unstable();
            let mut c = Checksum::new();
            let mut at = 0;
            for s in splits.into_iter().chain([len]) {
                c.push(&data[at..s]);
                at = s;
            }
            assert_eq!(c.finish(), reference(&data), "len {len}");
            assert_eq!(checksum(&data), reference(&data), "len {len}");
        }
    }
}
