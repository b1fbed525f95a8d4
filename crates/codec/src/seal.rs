//! The sealed container: one length-prefixed, CRC-sealed byte layout
//! shared by every framed format in the workspace.
//!
//! The paper ships every compressed activation over one DMA stream
//! format (Sec. III-G); this module owns the one decision "how such a
//! container is laid out and validated".  `codec::wire` (`JACT`),
//! `serve::frame` (`JSRV`) and `infer::frame` (`JINF`) are [`Layout`]
//! constants plus a body codec; `serve::journal` (`JJRN`) keeps its
//! length-less header but shares the writers, the [`Reader`] and the
//! trailer check.
//!
//! ## Layout (all integers little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic |
//! | 4 | 2 | format version |
//! | 6 | 1 | tag, within the layout's `min_tag..=max_tag` |
//! | 7 | 1 | reserved, must be 0 |
//! | 8 | `A` | address (`addr_bytes`; the owner's fields, opaque here) |
//! | 8+`A` | 8 | body length `L` |
//! | 16+`A` | `L` | body |
//! | 16+`A`+`L` | 4 | CRC32 (IEEE, poly `0xEDB88320`) over all prior bytes |
//!
//! A container must be *exactly* `16 + A + L + 4` bytes.  [`open`] is a
//! total function over arbitrary input and checks magic → version → tag
//! → reserved → length overflow → short buffer → trailing bytes → CRC in
//! that order, so the first thing wrong with a buffer decides its typed
//! [`FrameError`].  Hostile bytes flow through here (JA10 wire surface):
//! only bounds-checked access, no slice indexing, no runtime division.

/// Bytes before the address: magic + version + tag + reserved.
const PREFIX_BYTES: usize = 8;
/// Byte offset of the tag within the header.
const TAG_OFFSET: usize = 6;
/// Size of the trailing CRC32.
pub const TRAILER_BYTES: usize = 4;

/// What distinguishes one sealed container format from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The first four bytes of every container.
    pub magic: [u8; 4],
    /// Format version; decoders reject every version but their own.
    pub version: u16,
    /// Size of the owner-defined address between the fixed prefix and
    /// the body length.
    pub addr_bytes: usize,
    /// Smallest valid tag.
    pub min_tag: u8,
    /// Largest valid tag.
    pub max_tag: u8,
}

impl Layout {
    /// Header size: prefix + address + body length.
    pub const fn header_bytes(&self) -> usize {
        PREFIX_BYTES + self.addr_bytes + 8
    }

    /// Total container size for a body of `body_len` bytes, or `None`
    /// when that overflows `usize`.
    fn total_bytes(&self, body_len: u64) -> Option<usize> {
        usize::try_from(body_len)
            .ok()?
            .checked_add(self.header_bytes())?
            .checked_add(TRAILER_BYTES)
    }
}

/// Why a byte buffer is not a valid sealed container.  Owners convert
/// this into their own error type (`CodecError`, `ServeError`,
/// `InferError`) at the `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer does not start with the layout's magic.
    BadMagic,
    /// The version field is not the layout's.
    BadVersion {
        /// The version the buffer carries.
        got: u16,
    },
    /// The tag is outside the layout's range.
    BadTag {
        /// The tag the buffer carries.
        got: u8,
    },
    /// The reserved byte is non-zero.
    BadReserved,
    /// A length field does not fit `usize` or overflows the container
    /// size.
    BadLength {
        /// Byte offset of the length field.
        offset: usize,
    },
    /// A read ran past the end of the buffer.
    Truncated {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the read asked for.
        needed: usize,
        /// Bytes left at `offset`.
        available: usize,
    },
    /// The buffer holds only part of a container (or, on a stream, of a
    /// header).
    Incomplete {
        /// Bytes present.
        have: usize,
        /// Bytes the container (or header) needs.
        want: usize,
    },
    /// Bytes follow the container.
    Trailing {
        /// Byte offset the container ends at.
        offset: usize,
        /// Bytes after that offset.
        extra: usize,
    },
    /// The CRC trailer does not match the contents.
    Checksum {
        /// The CRC the trailer announces.
        expected: u32,
        /// The CRC the contents hash to.
        actual: u32,
    },
    /// A stream announced a container above the assembler's cap.
    Oversize {
        /// Announced container size in bytes.
        len: usize,
        /// The assembler's cap in bytes.
        max: usize,
    },
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — hand-rolled so
// the workspace stays hermetic.
// ---------------------------------------------------------------------

/// Input bytes one step of the main loop consumes, and the number of
/// 256-entry tables it looks them up in (slicing-by-16, Kounavis & Berry).
const CRC_SLICES: usize = 16;

/// Slice `k` at `k * 256`: entry `b` is the register after byte `b` and
/// then `k` zero bytes have been shifted through it.  Slice 0 is the
/// classic byte-at-a-time table.
const fn crc_tables() -> [u32; 256 * CRC_SLICES] {
    let mut tables = [0u32; 256 * CRC_SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[i] = c;
        i += 1;
    }
    while i < tables.len() {
        let prev = tables[i - 256];
        tables[i] = (prev >> 8) ^ tables[(prev & 0xFF) as usize];
        i += 1;
    }
    tables
}

static CRC_TABLES: [u32; 256 * CRC_SLICES] = crc_tables();

/// The contribution of one little-endian input word to the register
/// sixteen bytes on, when `after` more input bytes follow the word
/// within the step: each byte goes through the slice for its distance
/// from the end of the step.
#[inline]
fn crc_word(w: u32, after: usize) -> u32 {
    CRC_TABLES[(after + 3) * 256 + (w & 0xFF) as usize]
        ^ CRC_TABLES[(after + 2) * 256 + ((w >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[(after + 1) * 256 + ((w >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[after * 256 + (w >> 24) as usize]
}

/// CRC32 (IEEE) of a byte buffer — the checksum of the container
/// trailer.  Public so corruption tests can re-seal mutated containers
/// and exercise the field validation behind the checksum.
///
/// Sixteen bytes per step: the register is folded into the first of
/// four little-endian words and every byte is looked up in the table
/// for its position, so the sixteen loads do not wait on one another;
/// the last `len % 16` bytes go one at a time.  The value is the
/// bit-serial CRC's, whatever the length or alignment.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut steps = data.chunks_exact(CRC_SLICES);
    for step in &mut steps {
        // Word by word, not from one 128-bit load: when the slice offsets
        // are constants from the start, LLVM at `target-cpu=native` merges
        // the sixteen lookups into two AVX-512 gathers, which run at a
        // quarter of this loop's rate on the reference machine
        // (`bench_check` holds `wire_stages/crc32` above 1 GiB/s).
        let mut next = 0;
        for (word, after) in step.chunks_exact(4).zip([12, 8, 4, 0]) {
            // The register folds into the first word and no other.
            let w = u32::from_le_bytes(le_bytes(word)) ^ std::mem::take(&mut c);
            next ^= crc_word(w, after);
        }
        c = next;
    }
    for &b in steps.remainder() {
        c = CRC_TABLES[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Little-endian writers.
// ---------------------------------------------------------------------

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `n` little-endian 32-bit words as one plane: one resize,
/// then a fixed-width store loop the compiler turns into wide copies.
fn put_words(out: &mut Vec<u8>, n: usize, words: impl Iterator<Item = u32>) {
    let start = out.len();
    out.resize(start + n * 4, 0);
    let plane = out.get_mut(start..).unwrap_or_default();
    for (dst, w) in plane.chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Appends a plane of little-endian `u32`s.
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_words(out, vs.len(), vs.iter().copied());
}

/// Appends a plane of little-endian `f32`s, bit patterns intact.
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_words(out, vs.len(), vs.iter().map(|v| v.to_bits()));
}

/// Copies a length-checked byte slice into a fixed array for
/// `from_le_bytes`.  Callers pass exactly `N` bytes (from
/// [`Reader::take`] or `chunks_exact`), so the zero fallback is
/// unreachable; it keeps the decode path free of panicking indexing.
pub fn le_bytes<const N: usize>(s: &[u8]) -> [u8; N] {
    s.try_into().unwrap_or([0; N])
}

/// Starts a container in `out`, clearing it first and reusing its
/// capacity: the fixed prefix, then whatever `addr` appends (exactly
/// `layout.addr_bytes`), then a zero body-length placeholder.  The body
/// goes directly into `out`; [`seal`] finishes the container.
pub fn begin(out: &mut Vec<u8>, layout: &Layout, addr: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&layout.magic);
    put_u16(out, layout.version);
    out.push(0); // tag, patched by `seal`
    out.push(0); // reserved
    addr(out);
    debug_assert_eq!(out.len(), PREFIX_BYTES + layout.addr_bytes);
    put_u64(out, 0); // body length, patched by `seal`
}

/// Finishes a container started by [`begin`]: patches the tag and the
/// body length in place, then seals everything with one CRC pass.
pub fn seal(out: &mut Vec<u8>, layout: &Layout, tag: u8) {
    if let Some(slot) = out.get_mut(TAG_OFFSET) {
        *slot = tag;
    }
    let body_len = out.len().saturating_sub(layout.header_bytes()) as u64;
    let at = PREFIX_BYTES + layout.addr_bytes;
    if let Some(slot) = out.get_mut(at..at + 8) {
        slot.copy_from_slice(&body_len.to_le_bytes());
    }
    let crc = crc32(out);
    put_u32(out, crc);
}

// ---------------------------------------------------------------------
// Bounds-checked little-endian reader.
// ---------------------------------------------------------------------

/// Sequential bounds-checked reader over untrusted bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The cursor: bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes between the cursor and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        match self.pos.checked_add(n).and_then(|end| self.buf.get(self.pos..end)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(FrameError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(le_bytes(self.take(2)?)))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(le_bytes(self.take(4)?)))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(le_bytes(self.take(8)?)))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_le_bytes(le_bytes(self.take(4)?)))
    }

    /// Reads a `u64` length field and narrows it to `usize`.
    pub fn len_u64(&mut self) -> Result<usize, FrameError> {
        let offset = self.pos;
        usize::try_from(self.u64()?).map_err(|_| FrameError::BadLength { offset })
    }
}

/// Checks the CRC trailer of `bytes` and returns the offset it starts
/// at (the end of the sealed region).
pub fn check_trailer(bytes: &[u8]) -> Result<usize, FrameError> {
    let end = bytes
        .len()
        .checked_sub(TRAILER_BYTES)
        .ok_or(FrameError::Incomplete {
            have: bytes.len(),
            want: TRAILER_BYTES,
        })?;
    let (sealed, trailer) = bytes.split_at(end);
    let expected = u32::from_le_bytes(le_bytes(trailer));
    let actual = crc32(sealed);
    if expected != actual {
        return Err(FrameError::Checksum { expected, actual });
    }
    Ok(end)
}

/// Validates one complete container and opens its body.
///
/// Returns the tag, the address bytes, a [`Reader`] over `bytes`
/// positioned at the first body byte, and the offset one past the last
/// body byte (the owner checks its body codec stopped exactly there).
/// Total over arbitrary input; see the module docs for the check order.
pub fn open<'a>(
    bytes: &'a [u8],
    layout: &Layout,
) -> Result<(u8, &'a [u8], Reader<'a>, usize), FrameError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != layout.magic {
        return Err(FrameError::BadMagic);
    }
    let version = r.u16()?;
    if version != layout.version {
        return Err(FrameError::BadVersion { got: version });
    }
    let tag = r.u8()?;
    if tag < layout.min_tag || tag > layout.max_tag {
        return Err(FrameError::BadTag { got: tag });
    }
    if r.u8()? != 0 {
        return Err(FrameError::BadReserved);
    }
    let addr = r.take(layout.addr_bytes)?;
    let len_at = r.pos();
    let total = layout
        .total_bytes(r.u64()?)
        .ok_or(FrameError::BadLength { offset: len_at })?;
    if bytes.len() < total {
        return Err(FrameError::Incomplete {
            have: bytes.len(),
            want: total,
        });
    }
    if bytes.len() > total {
        return Err(FrameError::Trailing {
            offset: total,
            extra: bytes.len() - total,
        });
    }
    let body_end = check_trailer(bytes)?;
    Ok((tag, addr, r, body_end))
}

// ---------------------------------------------------------------------
// Streaming reassembly.
// ---------------------------------------------------------------------

/// Incremental delimiter for a byte stream of concatenated containers
/// of one [`Layout`].
///
/// A transport delivers bytes at arbitrary boundaries;
/// [`push`](Assembler::push) accepts each chunk and yields every
/// container completed by it, holding partial tails across calls.  A
/// wrong magic fails on however much of it has arrived, and an
/// announced total size above the cap fails as soon as the header is
/// in, so a hostile peer can neither stall nor balloon the buffer.  The
/// assembler only *delimits*; callers still [`open`] each yielded
/// buffer, which is where the tag and CRC are checked.
#[derive(Debug)]
pub struct Assembler {
    layout: Layout,
    buf: Vec<u8>,
    max_bytes: usize,
}

impl Assembler {
    /// Creates an assembler that rejects containers whose total size
    /// (header + body + CRC) exceeds `max_bytes`.
    pub fn new(layout: Layout, max_bytes: usize) -> Self {
        Assembler {
            layout,
            buf: Vec::new(),
            max_bytes,
        }
    }

    /// Bytes of the partial container currently buffered.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Total size the buffered header announces, `None` until the whole
    /// header has arrived.
    fn announced(&self) -> Option<Result<usize, FrameError>> {
        let at = PREFIX_BYTES + self.layout.addr_bytes;
        let field = self.buf.get(at..at + 8)?;
        Some(
            self.layout
                .total_bytes(u64::from_le_bytes(le_bytes(field)))
                .ok_or(FrameError::BadLength { offset: at }),
        )
    }

    /// Feeds one chunk of stream bytes, returning every container it
    /// completes (possibly none, possibly several).
    ///
    /// Protocol errors on a byte stream are not recoverable mid-stream:
    /// after an error the buffer state is unspecified and the caller
    /// should discard the assembler along with the connection.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, FrameError> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        loop {
            let have_magic = self.buf.len().min(self.layout.magic.len());
            if self.buf.get(..have_magic) != self.layout.magic.get(..have_magic) {
                return Err(FrameError::BadMagic);
            }
            let Some(total) = self.announced() else {
                return Ok(out);
            };
            let total = total?;
            if total > self.max_bytes {
                return Err(FrameError::Oversize {
                    len: total,
                    max: self.max_bytes,
                });
            }
            if self.buf.len() < total {
                return Ok(out);
            }
            let rest = self.buf.split_off(total);
            out.push(std::mem::replace(&mut self.buf, rest));
        }
    }

    /// Declares end-of-stream: a buffered partial container is a typed
    /// [`FrameError::Incomplete`] naming the size it was waiting for
    /// (the header size while the header itself is partial).
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let want = match self.announced() {
            Some(Ok(total)) => total,
            _ => self.layout.header_bytes(),
        };
        Err(FrameError::Incomplete {
            have: self.buf.len(),
            want,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: Layout = Layout {
        magic: *b"TSTP",
        version: 3,
        addr_bytes: 0,
        min_tag: 0,
        max_tag: 2,
    };
    const ADDRESSED: Layout = Layout {
        magic: *b"TSTA",
        version: 1,
        addr_bytes: 12,
        min_tag: 1,
        max_tag: 4,
    };

    fn sealed(layout: &Layout, tag: u8, body: &[u8]) -> Vec<u8> {
        let mut out = vec![0xAA; 7]; // stale contents must be cleared
        begin(&mut out, layout, |o| o.resize(o.len() + layout.addr_bytes, 0x5A));
        out.extend_from_slice(body);
        seal(&mut out, layout, tag);
        out
    }

    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len() - TRAILER_BYTES;
        let crc = crc32(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_le_bytes());
    }

    /// The CRC as the shift register it models: one bit per step, no
    /// table.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        use jact_rng::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn crc32_ieee_vectors() {
        for (text, want) in [
            ("", 0u32),
            ("a", 0xE8B7_BE43),
            ("abc", 0x3524_41C2),
            ("123456789", 0xCBF4_3926),
            ("The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(text.as_bytes()), want, "{text:?}");
        }
    }

    #[test]
    fn crc32_matches_the_shift_register_at_every_length_and_offset() {
        // Every split between the 16-byte steps and the byte tail, at
        // every alignment of the first step.
        let buf = seeded_bytes(0xC3C, 300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_the_shift_register_on_a_frame_sized_buffer() {
        // 2.5 MiB and a 7-byte tail: the size of one mini-vgg raw frame.
        let buf = seeded_bytes(0xC3D, (5 << 19) + 7);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    #[test]
    fn plane_writers_append_what_the_element_writers_do() {
        let words = [0u32, 1, 0x0102_0304, u32::MAX, 0x8000_0000];
        let floats = [0.0f32, -0.0, 1.5, f32::INFINITY, f32::from_bits(0x7FC0_1234)];
        let (mut bulk, mut each) = (vec![0xEE], vec![0xEE]);
        put_u32s(&mut bulk, &words);
        put_f32s(&mut bulk, &floats);
        put_u32s(&mut bulk, &[]);
        words.iter().for_each(|&w| put_u32(&mut each, w));
        floats.iter().for_each(|&f| put_f32(&mut each, f));
        assert_eq!(bulk, each);
    }

    #[test]
    fn begin_seal_open_round_trip_both_geometries() {
        for (layout, tag) in [(PLAIN, 2u8), (ADDRESSED, 1)] {
            let bytes = sealed(&layout, tag, b"hello body");
            assert_eq!(bytes.len(), layout.header_bytes() + 10 + TRAILER_BYTES);
            let (got_tag, addr, mut r, body_end) = open(&bytes, &layout).unwrap();
            assert_eq!(got_tag, tag);
            assert_eq!(addr, vec![0x5A; layout.addr_bytes]);
            assert_eq!(r.pos(), layout.header_bytes());
            assert_eq!(r.take(10).unwrap(), b"hello body");
            assert_eq!(r.pos(), body_end);
            assert_eq!(r.remaining(), TRAILER_BYTES);
        }
    }

    #[test]
    fn open_reports_the_first_thing_wrong() {
        let good = sealed(&ADDRESSED, 2, &[7; 9]);
        let with = |at: usize, v: u8, fix_crc: bool| {
            let mut b = good.clone();
            b[at] = v;
            if fix_crc {
                reseal(&mut b);
            }
            open(&b, &ADDRESSED).map(|_| ()).unwrap_err()
        };
        // Header fields are checked before the CRC, in layout order.
        assert_eq!(with(0, b'X', false), FrameError::BadMagic);
        assert_eq!(with(4, 9, false), FrameError::BadVersion { got: 9 });
        assert_eq!(with(6, 0, false), FrameError::BadTag { got: 0 });
        assert_eq!(with(6, 5, true), FrameError::BadTag { got: 5 });
        assert_eq!(with(7, 1, true), FrameError::BadReserved);
        let mut huge = good.clone();
        huge[20..28].fill(0xFF);
        assert_eq!(
            open(&huge, &ADDRESSED).map(|_| ()),
            Err(FrameError::BadLength { offset: 20 })
        );
        assert!(matches!(with(20, 10, false), FrameError::Incomplete { .. }));
        assert!(matches!(with(20, 8, false), FrameError::Trailing { extra: 1, .. }));
        assert!(matches!(with(30, 0, false), FrameError::Checksum { .. }));
        // A bad address or body byte is only ever the checksum's to find.
        assert!(matches!(with(9, 0, false), FrameError::Checksum { .. }));
    }

    #[test]
    fn every_truncation_is_typed() {
        let good = sealed(&ADDRESSED, 3, &[1, 2, 3]);
        for cut in 0..good.len() {
            let err = open(&good[..cut], &ADDRESSED).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. } | FrameError::Incomplete { .. }),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = Reader::new(&[1, 0, 2, 0, 0, 0]);
        assert_eq!(r.u16().unwrap(), 1);
        assert_eq!(r.u32().unwrap(), 2);
        assert_eq!(
            r.u8(),
            Err(FrameError::Truncated {
                offset: 6,
                needed: 1,
                available: 0
            })
        );
        assert!(matches!(r.take(usize::MAX), Err(FrameError::Truncated { .. })));
        assert_eq!(r.pos(), 6, "a failed read consumes nothing");
    }

    #[test]
    fn check_trailer_on_a_length_less_container() {
        let mut bytes = b"JJRNpayload".to_vec();
        let crc = crc32(&bytes);
        put_u32(&mut bytes, crc);
        assert_eq!(check_trailer(&bytes), Ok(11));
        bytes[5] ^= 1;
        assert!(matches!(check_trailer(&bytes), Err(FrameError::Checksum { .. })));
        assert_eq!(
            check_trailer(&[1, 2]),
            Err(FrameError::Incomplete { have: 2, want: 4 })
        );
    }
}
