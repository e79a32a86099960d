//! Length-prefixed, CRC-checked binary records.
//!
//! Wire layout of a record:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 (LE)  | crc32: u32(LE) | payload: len * u8|
//! +----------------+----------------+------------------+
//! ```
//!
//! The CRC covers the payload only; the length field is validated
//! indirectly (a wrong length produces a CRC mismatch or a short read,
//! both reported as corruption — except at the tail of a log, where a
//! short read is treated as a torn write by [`crate::log::AppendLog`]).
//! [`read_record_into`] is the one reader of the format: log scans, WAL
//! tails, save files and wire frames all parse headers, cap lengths,
//! fill payloads and check CRCs through it.

use crate::error::{StorageError, StorageResult};
use std::io::{Read, Write};

/// Maximum encodable payload size (16 MiB). Propositions are tiny; this
/// bound exists to turn corrupted length fields into clean errors instead
/// of huge allocations.
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

/// Size of the per-record header (length + CRC).
pub const HEADER_LEN: usize = 8;

const CRC_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables, built at compile time. `CRC_TABLES[0][b]`
/// is the classic byte-at-a-time table: the register after byte `b`
/// alone. `CRC_TABLES[k][b]` is that register after `k` more zero
/// bytes, so one lookup per byte, XORed together, advances the
/// register over eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 (IEEE: reflected polynomial `0xEDB88320`,
/// initial and final XOR `0xFFFFFFFF`) of `data`. Every frame, WAL
/// record, save file and replication message is checked with it.
///
/// Two kernels advance the register, and their checksums are
/// bit-identical to the byte-at-a-time CRC's, so every file and frame
/// written before still verifies:
///
/// * on x86-64, an input of at least 128 bytes on a CPU with
///   `pclmulqdq` and `sse4.1` (detected at run time) is folded 64 bytes
///   at a time by carry-less multiplication (`clmul::update`);
/// * everything else — short inputs, the kernel's tail of fewer than
///   16 bytes, other architectures, Miri — runs slicing-by-8
///   ([`update_sliced`]).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// The CRC kernel [`crc32_update`] runs over an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Slicing-by-8, on every host.
    Sliced,
    /// Carry-less-multiply folding (`clmul::update`).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    Clmul,
}

/// The kernel this host runs over `len` bytes.
fn kernel_for(len: usize) -> Kernel {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if len >= clmul::MIN_LEN && clmul::detected() {
        return Kernel::Clmul;
    }
    let _ = len;
    Kernel::Sliced
}

/// Advances the raw CRC register `crc` (no initial or final XOR) over
/// `data` by the fastest kernel this host runs.
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    match kernel_for(data.len()) {
        Kernel::Sliced => update_sliced(crc, data),
        // SAFETY: `kernel_for` picks the kernel only on a CPU that
        // reports `pclmulqdq` and `sse4.1` (and only for at least
        // `clmul::MIN_LEN` bytes).
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Kernel::Clmul => unsafe { clmul::update(crc, data) },
    }
}

/// Slicing-by-8 over the raw register: each eight-byte word costs
/// eight independent table reads instead of eight dependent byte
/// steps; the tail of fewer than eight bytes goes byte at a time.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ u64::from(crc);
        crc = t[7][w as u8 as usize]
            ^ t[6][(w >> 8) as u8 as usize]
            ^ t[5][(w >> 16) as u8 as usize]
            ^ t[4][(w >> 24) as u8 as usize]
            ^ t[3][(w >> 32) as u8 as usize]
            ^ t[2][(w >> 40) as u8 as usize]
            ^ t[1][(w >> 48) as u8 as usize]
            ^ t[0][(w >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The CRC-32 by carry-less multiplication (PCLMULQDQ): the reflected
/// fold of Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction" (Intel, 2009), with the constants the
/// Linux kernel's `crc32-pclmul` uses. Four 128-bit lanes fold 64
/// bytes per step, then fold into one, which takes the remaining whole
/// 16-byte words; 128 bits reduce to 64, and a Barrett reduction to the
/// 32-bit register. The tail goes to [`update_sliced`].
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest input the kernel takes: one 64-byte block to load
    /// the lanes and one to fold into them.
    pub(super) const MIN_LEN: usize = 128;

    // Each fold constant is `x^n mod P`, bit-reflected in 32 bits and
    // shifted left by one (the tests derive them from the polynomial).
    /// `n = 4*128+32` and `4*128-32`: a lane's fold across the 64 bytes
    /// of the four lanes.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// `n = 128+32` and `128-32`: a fold across 16 bytes.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// `n = 64`: the reduction from 128 to 64 bits.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// P itself and Barrett's `floor(x^64 / P)`, both bit-reflected in
    /// 33 bits.
    pub(super) const P: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs the kernel (cached by `std` after the
    /// first call).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::update_sliced`]'s register after `data`, which must
    /// hold at least [`MIN_LEN`] bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`detected`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN, "{} bytes", data.len());
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("a first block");
        let mut lanes = [
            load(first),
            load(&first[16..]),
            load(&first[32..]),
            load(&first[48..]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, load(&block[16 * i..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        let mut words = blocks.remainder().chunks_exact(16);
        for word in &mut words {
            x = fold(x, load(word), k3k4);
        }

        // 128 bits to 64: the low half times K4 onto the high half,
        // then the low 32 bits times K5 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = low32(x) * MU, T2 = low32(T1) * P; the register
        // is the second 32-bit word of x ^ T2 (reflected, so the upper
        // half of the 64-bit remainder).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_sliced(crc, words.remainder())
    }

    /// `acc` carried 128 (or 512) bits further by `k`, XORed into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The first 16 bytes of `bytes`, unaligned.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(bytes: &[u8]) -> __m128i {
        assert!(bytes.len() >= 16);
        _mm_loadu_si128(bytes.as_ptr().cast())
    }
}

/// Frames one record in place at the end of `out`: reserves the
/// header, lets `put` append the payload after it, then seals the
/// payload's length and CRC into the header. This is the one
/// definition of the record layout — [`encode`], [`write_record`] and
/// the server's reused reply buffer all frame through it — and the
/// payload is written once, where it is sent from. Returns the
/// record's length, header included. A payload over
/// [`MAX_RECORD_LEN`] is [`StorageError::RecordTooLarge`], and `out`
/// is cut back to what it held before.
pub fn encode_with(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) -> StorageResult<usize> {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    put(out);
    let len = out.len() - start - HEADER_LEN;
    if len > MAX_RECORD_LEN {
        out.truncate(start);
        return Err(StorageError::RecordTooLarge(len));
    }
    let crc = crc32(&out[start + HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(HEADER_LEN + len)
}

/// Encodes `payload` into the wire format, appending to `out`.
pub fn encode(payload: &[u8], out: &mut Vec<u8>) -> StorageResult<()> {
    encode_with(out, |out| out.extend_from_slice(payload)).map(drop)
}

/// Writes one record to `w`.
pub fn write_record<W: Write>(w: &mut W, payload: &[u8]) -> StorageResult<usize> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    encode(payload, &mut buf)?;
    w.write_all(&buf)?;
    Ok(buf.len())
}

/// Outcome of attempting to read a record from a stream.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A complete, CRC-valid record.
    Record(Vec<u8>),
    /// Clean end of stream (no bytes where a header would start).
    Eof,
    /// The stream ended mid-record: a torn write at `offset`.
    Torn {
        /// Offset of the torn record's header.
        offset: u64,
    },
    /// The header parsed but the payload failed its CRC.
    BadCrc {
        /// Offset of the corrupt record's header.
        offset: u64,
    },
}

/// How far past the bytes read a record's buffer may grow.
pub const READ_CHUNK: usize = 64 * 1024;

/// Reads one record starting at stream offset `offset` (used only for
/// error reporting). Distinguishes clean EOF, torn tail, and corruption
/// so the log layer can decide which are recoverable.
pub fn read_record<R: Read>(r: &mut R, offset: u64) -> StorageResult<ReadOutcome> {
    read_record_into(r, offset, Vec::new())
}

/// [`read_record`] into `payload`, a buffer the caller allocated.
/// Whatever it held is discarded; it comes back, filled, in
/// [`ReadOutcome::Record`]. A header's length is the writer's word, not
/// yet its bytes: the buffer grows at most one [`READ_CHUNK`] past the
/// bytes read, so a header promising more than the stream holds makes
/// the reader zero-fill no more than that. Within the capacity the
/// caller sized, growing never reallocates.
pub fn read_record_into<R: Read>(
    r: &mut R,
    offset: u64,
    mut payload: Vec<u8>,
) -> StorageResult<ReadOutcome> {
    let mut header = [0u8; HEADER_LEN];
    match fill(r, &mut header)? {
        0 => return Ok(ReadOutcome::Eof),
        HEADER_LEN => {}
        _ => return Ok(ReadOutcome::Torn { offset }),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD_LEN {
        return Ok(ReadOutcome::BadCrc { offset });
    }
    payload.clear();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(len.min(filled + READ_CHUNK), 0);
        if fill(r, &mut payload[filled..])? < payload.len() - filled {
            return Ok(ReadOutcome::Torn { offset });
        }
    }
    if crc32(&payload) != crc {
        return Ok(ReadOutcome::BadCrc { offset });
    }
    Ok(ReadOutcome::Record(payload))
}

/// Reads until `buf` is full or the stream ends; returns the bytes read.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Helpers for encoding the primitive values used by record payloads.
/// All integers are little-endian; strings are length-prefixed UTF-8.
///
/// On top of the primitives sits the one field codec every op record
/// shares: a [`codec::Wire`] value has exactly one encoding, and an
/// [`op_table!`](crate::op_table) declares an enum of ops — wire
/// requests and responses, journal ops, replication messages — as
/// `opcode:u32` followed by the row's `Wire` fields.
pub mod codec {
    use crate::error::{StorageError, StorageResult};
    use std::borrow::Cow;

    /// Appends a `u32`.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(out: &mut Vec<u8>, v: i64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
        put_u32(out, v.len() as u32);
        out.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, v: &str) {
        put_bytes(out, v.as_bytes());
    }

    /// Sequential reader over an encoded payload.
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        /// Starts reading `buf` from the beginning.
        pub fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        /// A [`StorageError::Corrupt`] at the current read position —
        /// how every decoder over this cursor reports a value it
        /// refuses (unknown tag, unknown opcode, trailing bytes).
        pub fn corrupt(&self, detail: impl Into<String>) -> StorageError {
            StorageError::Corrupt {
                offset: self.pos as u64,
                detail: detail.into(),
            }
        }

        fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
            if self.pos + n > self.buf.len() {
                return Err(self.corrupt(format!("payload truncated: need {n} bytes")));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Reads a `u32`.
        pub fn get_u32(&mut self) -> StorageResult<u32> {
            let s = self.take(4)?;
            Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        }

        /// Reads a `u64`.
        pub fn get_u64(&mut self) -> StorageResult<u64> {
            let s = self.take(8)?;
            Ok(u64::from_le_bytes(s.try_into().expect("len 8")))
        }

        /// Reads an `i64`.
        pub fn get_i64(&mut self) -> StorageResult<i64> {
            let s = self.take(8)?;
            Ok(i64::from_le_bytes(s.try_into().expect("len 8")))
        }

        /// Reads a length-prefixed byte string.
        pub fn get_bytes(&mut self) -> StorageResult<&'a [u8]> {
            let n = self.get_u32()? as usize;
            self.take(n)
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn get_str(&mut self) -> StorageResult<&'a str> {
            let b = self.get_bytes()?;
            std::str::from_utf8(b).map_err(|e| self.corrupt(format!("invalid utf-8: {e}")))
        }

        /// True if every byte has been consumed.
        pub fn is_exhausted(&self) -> bool {
            self.pos == self.buf.len()
        }
    }

    /// A field of an op record: a value with exactly one encoding,
    /// shared by the wire protocol, the journal and the replication
    /// stream. Decoding is strict — an encoding no `put` can produce
    /// (a tag other than 0/1, a truncated list) is
    /// [`StorageError::Corrupt`], never a guess — so an accepted
    /// payload re-encodes to the same bytes.
    pub trait Wire: Sized {
        /// Appends the value's encoding to `out`.
        fn put(&self, out: &mut Vec<u8>);
        /// Reads one value, advancing the cursor past it.
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self>;
    }

    impl Wire for u32 {
        fn put(&self, out: &mut Vec<u8>) {
            put_u32(out, *self);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            c.get_u32()
        }
    }

    impl Wire for u64 {
        fn put(&self, out: &mut Vec<u8>) {
            put_u64(out, *self);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            c.get_u64()
        }
    }

    impl Wire for i64 {
        fn put(&self, out: &mut Vec<u8>) {
            put_i64(out, *self);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            c.get_i64()
        }
    }

    /// A `u32` word that must be 0 or 1 — the tag of `bool` and
    /// `Option`.
    fn get_flag(c: &mut Cursor<'_>, what: &str) -> StorageResult<bool> {
        match c.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(c.corrupt(format!("{what} tag {other} is neither 0 nor 1"))),
        }
    }

    impl Wire for bool {
        fn put(&self, out: &mut Vec<u8>) {
            put_u32(out, u32::from(*self));
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            get_flag(c, "bool")
        }
    }

    impl Wire for String {
        fn put(&self, out: &mut Vec<u8>) {
            put_str(out, self);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            Ok(c.get_str()?.to_string())
        }
    }

    /// A string an encoder may borrow: the bytes of the same `String`.
    /// Decoding always owns.
    impl Wire for Cow<'static, str> {
        fn put(&self, out: &mut Vec<u8>) {
            put_str(out, self);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            String::get(c).map(Cow::Owned)
        }
    }

    /// An opaque byte string (a nested payload): one length prefix and
    /// a bulk copy, not a list of elements.
    impl Wire for Vec<u8> {
        fn put(&self, out: &mut Vec<u8>) {
            put_bytes(out, self);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            Ok(c.get_bytes()?.to_vec())
        }
    }

    impl<T: Wire> Wire for Option<T> {
        fn put(&self, out: &mut Vec<u8>) {
            match self {
                None => put_u32(out, 0),
                Some(v) => {
                    put_u32(out, 1);
                    v.put(out);
                }
            }
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            Ok(if get_flag(c, "option")? {
                Some(T::get(c)?)
            } else {
                None
            })
        }
    }

    /// Elements pre-allocated for a decoded list before any of them
    /// has been read: the count is outside input, so it sizes the
    /// allocation only up to this bound (longer lists grow as their
    /// elements actually arrive).
    const LIST_PREALLOC_CAP: usize = 1024;

    /// A `u32` count followed by that many elements.
    impl<T: Wire> Wire for Vec<T> {
        fn put(&self, out: &mut Vec<u8>) {
            put_u32(out, self.len() as u32);
            for v in self {
                v.put(out);
            }
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            let n = c.get_u32()? as usize;
            let mut list = Vec::with_capacity(n.min(LIST_PREALLOC_CAP));
            for _ in 0..n {
                list.push(T::get(c)?);
            }
            Ok(list)
        }
    }

    impl<A: Wire, B: Wire> Wire for (A, B) {
        fn put(&self, out: &mut Vec<u8>) {
            self.0.put(out);
            self.1.put(out);
        }
        fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
            Ok((A::get(c)?, B::get(c)?))
        }
    }
}

/// Implements [`codec::Wire`] for a struct with named fields as the
/// fields listed, in that order: the encoding a hand-written impl would
/// spell out field by field, and its strict decoder.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::record::codec::Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::record::codec::Wire::put(&self.$field, out); )*
            }
            fn get(c: &mut $crate::record::codec::Cursor<'_>) -> $crate::StorageResult<Self> {
                Ok($name {
                    $( $field: $crate::record::codec::Wire::get(c)? ),*
                })
            }
        }
    };
}

/// Declares one table of ops: an enum whose every variant is a row
/// `opcode Variant "label" { field: Type, … }`, encoded as the `u32`
/// opcode followed by the row's [`codec::Wire`] fields in declaration
/// order. From the rows the macro generates the enum itself (attributes
/// and doc comments pass through; a row without a `{…}` group is a
/// unit variant), its [`codec::Wire`] impl (so one table's op can be a
/// field of another's row), `encode`, a strict `decode` (unknown opcode
/// and trailing bytes are [`StorageError::Corrupt`]), `op_name()` (the
/// label), `OPS` (the `(opcode, label)` row list) and, in test builds,
/// `check_golden`, the table-driven golden-fixture test — so an op is
/// spelled out exactly once.
///
/// A table declared as `enum Name: Class { … }` carries one more
/// column — a variant of the enum `Class` after each label — and gets
/// `class()` returning it.
#[macro_export]
macro_rules! op_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $class_ty:ident {
            $(
                $(#[$vmeta:meta])*
                $op:literal $variant:ident $label:literal $class:ident
                $({ $($fields:tt)* })?
            ),* $(,)?
        }
    ) => {
        $crate::op_table! {
            $(#[$meta])*
            $vis enum $name {
                $(
                    $(#[$vmeta])*
                    #[doc = ""]
                    #[doc = concat!("Class [`", stringify!($class_ty), "::", stringify!($class), "`].")]
                    $op $variant $label $({ $($fields)* })?
                ),*
            }
        }

        impl $name {
            /// The class column of the op's table row.
            pub fn class(&self) -> $class_ty {
                match self {
                    $( $name::$variant { .. } => $class_ty::$class, )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $op:literal $variant:ident $label:literal
                $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                #[doc = ""]
                #[doc = concat!("Opcode ", stringify!($op), ", label `", $label, "`.")]
                $variant $({ $( $(#[$fmeta])* $field: $ty ),* })?,
            )*
        }

        impl $name {
            /// `(opcode, label)` of every row, in table order.
            pub const OPS: &'static [(u32, &'static str)] = &[ $( ($op, $label) ),* ];

            /// Encodes the op as a record payload: the opcode, then the
            /// row's fields in declaration order.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                $crate::record::codec::Wire::put(self, &mut out);
                out
            }

            /// Decodes a record payload, rejecting an unknown opcode,
            /// any field encoding no `encode` produces, and trailing
            /// bytes.
            pub fn decode(payload: &[u8]) -> $crate::StorageResult<Self> {
                let mut c = $crate::record::codec::Cursor::new(payload);
                let op: Self = $crate::record::codec::Wire::get(&mut c)?;
                if !c.is_exhausted() {
                    return Err(c.corrupt(format!("trailing bytes after `{}`", op.op_name())));
                }
                Ok(op)
            }

            /// The row's label: a stable lower-case name for the op.
            pub fn op_name(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $label, )*
                }
            }

            /// Test support: walks the table against a golden fixture of
            /// `label hex` lines — payloads this table must keep decoding
            /// and producing byte for byte. Opcodes and labels must be
            /// unique and every row must own a line; every line must
            /// decode to its row's variant and encode back to the same
            /// bytes. Around every line, accepted ⇒ canonical: no strict
            /// prefix and no extension decodes, and a corrupted byte is
            /// refused or decodes to a value with exactly those bytes.
            /// Returns the decoded lines.
            #[cfg(test)]
            pub fn check_golden(fixture: &str) -> Vec<Self>
            where
                Self: std::fmt::Debug,
            {
                for (i, (op, label)) in Self::OPS.iter().enumerate() {
                    assert!(
                        Self::OPS[..i].iter().all(|(o, l)| o != op && l != label),
                        "opcode {op} / label `{label}` is not unique"
                    );
                    assert!(
                        fixture.lines().any(|l| l.split(' ').next() == Some(label)),
                        "row `{label}` has no golden fixture line"
                    );
                }
                let mut samples = Vec::new();
                for line in fixture.lines() {
                    let (label, hex) = line.split_once(' ').expect("`label hex` line");
                    let bytes: Vec<u8> = (0..hex.len())
                        .step_by(2)
                        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                        .collect();
                    let sample = Self::decode(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(sample.op_name(), label, "{sample:?}");
                    assert_eq!(sample.encode(), bytes, "{label}: {sample:?}");
                    samples.push(sample);

                    for cut in 0..bytes.len() {
                        assert!(Self::decode(&bytes[..cut]).is_err(), "{label}: prefix {cut}");
                    }
                    let mut longer = bytes.clone();
                    longer.push(0);
                    assert!(Self::decode(&longer).is_err(), "{label}: one byte longer");
                    for at in 0..bytes.len() {
                        for byte in [0, 1, 2, 0xff] {
                            let mut corrupted = bytes.clone();
                            corrupted[at] = byte;
                            if let Ok(v) = Self::decode(&corrupted) {
                                assert_eq!(v.encode(), corrupted, "{label}: byte {at} = {byte}");
                            }
                        }
                    }
                }
                samples
            }
        }

        /// An op as a field of another table's row: its opcode and
        /// fields, byte for byte its own record payload.
        impl $crate::record::codec::Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $name::$variant $({ $($field),* })? => {
                            $crate::record::codec::put_u32(out, $op);
                            $($( $crate::record::codec::Wire::put($field, out); )*)?
                        }
                    )*
                }
            }

            fn get(c: &mut $crate::record::codec::Cursor<'_>) -> $crate::StorageResult<Self> {
                Ok(match c.get_u32()? {
                    $(
                        $op => $name::$variant $({
                            $( $field: $crate::record::codec::Wire::get(c)? ),*
                        })?,
                    )*
                    other => {
                        return Err(c.corrupt(format!(
                            "unknown {} opcode {other}",
                            stringify!($name)
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    /// The byte-at-a-time CRC [`crc32`] replaced, with its own table:
    /// the reference every slicing-by-8 checksum must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc_empty() {
        assert_eq!(crc32(b""), 0);
    }

    /// `len` bytes of a fixed pseudo-random stream.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Every length up to 1 KiB, starting at every offset within a
    /// word: both sides of the kernel's 128-byte cut-over and of its
    /// 64-byte block and 16-byte word edges, each with every tail.
    #[test]
    fn crc_matches_the_bytewise_reference_at_every_length_to_1k_and_alignment() {
        let max = if cfg!(miri) { 136 } else { 1024 };
        let buf = noise(max + 8);
        for align in 0..8 {
            for len in 0..=max {
                let data = &buf[align..align + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {align}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc_matches_the_bytewise_reference_on_large_buffers() {
        let lens: &[usize] = if cfg!(miri) {
            &[4 << 10]
        } else {
            &[64 << 10, 1 << 20, 16 << 20]
        };
        for &len in lens {
            let data = noise(len + 3);
            for data in [&data[..len], &data[3..]] {
                assert_eq!(crc32(data), crc32_bytewise(data), "length {len}");
            }
        }
    }

    /// The register `kernel` leaves after `data`, fed from the register
    /// of the bytewise CRC after `prefix`: a kernel must continue any
    /// register, not only the initial one.
    fn continued(kernel: impl Fn(u32, &[u8]) -> u32, prefix: &[u8], data: &[u8]) -> u32 {
        !kernel(!crc32_bytewise(prefix), data)
    }

    #[test]
    fn the_portable_kernel_matches_the_reference_directly() {
        let buf = noise(if cfg!(miri) { 300 } else { 4096 });
        for len in (0..buf.len()).step_by(if cfg!(miri) { 37 } else { 7 }) {
            let (prefix, data) = buf.split_at(len / 3);
            let data = &data[..len - prefix.len()];
            assert_eq!(
                continued(update_sliced, prefix, data),
                crc32_bytewise(&buf[..len]),
                "length {len}"
            );
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn the_clmul_kernel_matches_the_reference_directly() {
        if !clmul::detected() {
            return;
        }
        // SAFETY: the CPU reports the kernel's features (and every
        // input below is at least `clmul::MIN_LEN` bytes).
        let kernel = |crc, data: &[u8]| unsafe { clmul::update(crc, data) };
        let buf = noise(4096 + 64);
        for len in clmul::MIN_LEN..=1024 {
            for (prefix, data) in [(&buf[..0], &buf[..len]), (&buf[..5], &buf[5..5 + len])] {
                let whole = &buf[..prefix.len() + len];
                assert_eq!(
                    continued(kernel, prefix, data),
                    crc32_bytewise(whole),
                    "prefix {}, length {len}",
                    prefix.len()
                );
            }
        }
        let big = noise(1 << 20);
        assert_eq!(!kernel(!0, &big), crc32_bytewise(&big));
    }

    /// Derives each fold constant from the polynomial: `x^n mod P`
    /// bit-reflected in 32 bits and shifted left by one; `P` and
    /// `floor(x^64 / P)` reflected in 33 bits.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn the_clmul_constants_derive_from_the_polynomial() {
        const P_NORMAL: u64 = 0x1_04C1_1DB7;
        let x_mod = |n: u32| {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r >> 32 & 1 == 1 {
                    r ^ P_NORMAL
                } else {
                    r
                }
            })
        };
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        let k = |n| (reflect(x_mod(n), 32) << 1) as i64;
        assert_eq!(k(4 * 128 + 32), clmul::K1);
        assert_eq!(k(4 * 128 - 32), clmul::K2);
        assert_eq!(k(128 + 32), clmul::K3);
        assert_eq!(k(128 - 32), clmul::K4);
        assert_eq!(k(64), clmul::K5);
        // x^64 / P by long division.
        let (mut rem, mut quot) = (1u128 << 64, 0u128);
        while 128 - rem.leading_zeros() >= 33 {
            let shift = 128 - rem.leading_zeros() - 33;
            quot |= 1 << shift;
            rem ^= u128::from(P_NORMAL) << shift;
        }
        assert_eq!(reflect(quot as u64, 33) as i64, clmul::MU);
        assert_eq!(reflect(P_NORMAL, 33) as i64, clmul::P);
        assert_eq!(u64::from(CRC_POLY), reflect(P_NORMAL, 32));
    }

    /// On an x86-64 CPU that lists `pclmulqdq` and `sse4_1` (read from
    /// `/proc/cpuinfo` where there is one, independently of `std`'s
    /// detection), every input from the cut-over up runs the kernel:
    /// a build that silently fell back to slicing-by-8 fails here.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn the_clmul_kernel_is_the_path_taken_where_the_cpu_has_it() {
        let listed = match std::fs::read_to_string("/proc/cpuinfo") {
            Ok(info) => info.lines().any(|l| {
                l.starts_with("flags")
                    && l.split_whitespace().any(|f| f == "pclmulqdq")
                    && l.split_whitespace().any(|f| f == "sse4_1")
            }),
            Err(_) => clmul::detected(),
        };
        let want = if listed {
            Kernel::Clmul
        } else {
            Kernel::Sliced
        };
        for len in [clmul::MIN_LEN, 4096, MAX_RECORD_LEN] {
            assert_eq!(kernel_for(len), want, "length {len}");
        }
        assert_eq!(kernel_for(clmul::MIN_LEN - 1), Kernel::Sliced);
    }

    #[test]
    fn a_record_is_framed_in_place_after_what_the_buffer_holds() {
        let mut out = b"kept".to_vec();
        let framed = encode_with(&mut out, |out| out.extend_from_slice(b"hello")).unwrap();
        assert_eq!(framed, HEADER_LEN + 5);
        let mut want = b"kept".to_vec();
        encode(b"hello", &mut want).unwrap();
        assert_eq!(out, want);
        let mut written = Vec::new();
        assert_eq!(write_record(&mut written, b"hello").unwrap(), framed);
        assert_eq!(out[4..], written[..]);

        // Over the cap: refused, and the buffer is back to what it held.
        let err = encode_with(&mut out, |out| {
            out.resize(out.len() + MAX_RECORD_LEN + 1, 7)
        });
        assert!(matches!(err, Err(StorageError::RecordTooLarge(n)) if n == MAX_RECORD_LEN + 1));
        assert_eq!(out, want);
    }

    #[test]
    fn crc_matches_the_bytewise_reference_on_random_buffers() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let max = if cfg!(miri) { 4 << 10 } else { 256 << 10 };
        let mut rng = StdRng::seed_from_u64(0xC0C0);
        for round in 0..if cfg!(miri) { 4 } else { 24 } {
            let len = if round == 0 {
                max
            } else {
                rng.gen_range(0..max as u64 + 1) as usize
            };
            let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            assert_eq!(crc32(&data), crc32_bytewise(&data), "length {len}");
        }
    }

    #[test]
    fn roundtrip_single() {
        let mut buf = Vec::new();
        encode(b"hello", &mut buf).unwrap();
        let mut r = IoCursor::new(buf);
        match read_record(&mut r, 0).unwrap() {
            ReadOutcome::Record(p) => assert_eq!(p, b"hello"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(read_record(&mut r, 0).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let mut buf = Vec::new();
        encode(b"", &mut buf).unwrap();
        let mut r = IoCursor::new(buf);
        assert_eq!(read_record(&mut r, 0).unwrap(), ReadOutcome::Record(vec![]));
    }

    #[test]
    fn torn_header_detected() {
        let mut buf = Vec::new();
        encode(b"hello", &mut buf).unwrap();
        buf.truncate(3); // mid-header
        let mut r = IoCursor::new(buf);
        assert_eq!(
            read_record(&mut r, 7).unwrap(),
            ReadOutcome::Torn { offset: 7 }
        );
    }

    #[test]
    fn torn_payload_detected() {
        let mut buf = Vec::new();
        encode(b"hello world", &mut buf).unwrap();
        buf.truncate(HEADER_LEN + 4); // mid-payload
        let mut r = IoCursor::new(buf);
        assert_eq!(
            read_record(&mut r, 9).unwrap(),
            ReadOutcome::Torn { offset: 9 }
        );
    }

    #[test]
    fn flipped_bit_detected() {
        let mut buf = Vec::new();
        encode(b"hello", &mut buf).unwrap();
        buf[HEADER_LEN] ^= 0x40;
        let mut r = IoCursor::new(buf);
        assert_eq!(
            read_record(&mut r, 0).unwrap(),
            ReadOutcome::BadCrc { offset: 0 }
        );
    }

    #[test]
    fn absurd_length_rejected_cleanly() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0];
        buf.extend_from_slice(b"x");
        let mut r = IoCursor::new(buf);
        assert_eq!(
            read_record(&mut r, 0).unwrap(),
            ReadOutcome::BadCrc { offset: 0 }
        );
    }

    /// Serves a record header promising `MAX_RECORD_LEN` bytes, then
    /// `trickle` of them a thousand at a time, then end of stream; and
    /// records the length of every slice a read asks it to fill.
    struct ShortStream {
        bytes: Vec<u8>,
        at: usize,
        asked: Vec<usize>,
    }

    impl Read for ShortStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.asked.push(buf.len());
            let n = buf.len().min(1000).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_header_alone_cannot_make_the_reader_allocate_its_length() {
        // The last trickle is past half the cap: a buffer whose capacity
        // grew by doubling could by then hold the whole promised length.
        let past_half = MAX_RECORD_LEN / 2 + READ_CHUNK + 3;
        let last = if cfg!(miri) {
            2 * READ_CHUNK
        } else {
            past_half
        };
        for trickle in [0, 5, READ_CHUNK + 3, last] {
            let mut bytes = (MAX_RECORD_LEN as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.resize(bytes.len() + trickle, 7);
            let mut stream = ShortStream {
                bytes,
                at: 0,
                asked: Vec::new(),
            };
            assert_eq!(
                read_record(&mut stream, 3).unwrap(),
                ReadOutcome::Torn { offset: 3 },
                "trickle {trickle}"
            );
            assert_eq!(stream.at, stream.bytes.len(), "every byte served was read");
            let widest = stream.asked.iter().max().copied().unwrap_or(0);
            assert!(
                widest <= READ_CHUNK,
                "trickle {trickle}: a read was asked to fill {widest} bytes"
            );
        }
    }

    #[test]
    fn a_record_larger_than_a_chunk_reads_into_the_given_buffer() {
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        encode(&payload, &mut buf).unwrap();
        encode(b"next", &mut buf).unwrap();
        let mut r = IoCursor::new(buf);
        let given = Vec::with_capacity(payload.len());
        let at = given.as_ptr();
        match read_record_into(&mut r, 0, given).unwrap() {
            ReadOutcome::Record(p) => {
                assert_eq!(p, payload);
                assert_eq!(p.as_ptr(), at, "no reallocation within the capacity");
                // A shorter record reuses it, and nothing it held shows through.
                let next = read_record_into(&mut r, 0, p).unwrap();
                assert_eq!(next, ReadOutcome::Record(b"next".to_vec()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_record_rejected() {
        let huge = vec![0u8; MAX_RECORD_LEN + 1];
        let mut out = Vec::new();
        assert!(matches!(
            encode(&huge, &mut out),
            Err(StorageError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn codec_roundtrip() {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, 7);
        codec::put_u64(&mut buf, u64::MAX);
        codec::put_i64(&mut buf, -42);
        codec::put_str(&mut buf, "Invitation");
        codec::put_bytes(&mut buf, &[1, 2, 3]);
        let mut c = codec::Cursor::new(&buf);
        assert_eq!(c.get_u32().unwrap(), 7);
        assert_eq!(c.get_u64().unwrap(), u64::MAX);
        assert_eq!(c.get_i64().unwrap(), -42);
        assert_eq!(c.get_str().unwrap(), "Invitation");
        assert_eq!(c.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(c.is_exhausted());
    }

    #[test]
    fn codec_truncation_is_error() {
        let mut buf = Vec::new();
        codec::put_str(&mut buf, "Paper");
        buf.truncate(buf.len() - 2);
        let mut c = codec::Cursor::new(&buf);
        assert!(c.get_str().is_err());
    }

    #[test]
    fn codec_bad_utf8_is_error() {
        let mut buf = Vec::new();
        codec::put_bytes(&mut buf, &[0xFF, 0xFE]);
        let mut c = codec::Cursor::new(&buf);
        assert!(c.get_str().is_err());
    }

    use codec::{Cursor, Wire};

    fn wire_bytes<T: Wire>(v: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        v.put(&mut buf);
        buf
    }

    #[test]
    fn wire_option_roundtrips_and_rejects_bad_tags() {
        for v in [None, Some(String::new()), Some("parent".to_string())] {
            let buf = wire_bytes(&v);
            let mut c = Cursor::new(&buf);
            assert_eq!(Option::<String>::get(&mut c).unwrap(), v);
            assert!(c.is_exhausted());
        }
        // Any tag other than 0/1 is corruption, not an implicit Some.
        for tag in [2u32, 7, u32::MAX] {
            let mut buf = Vec::new();
            codec::put_u32(&mut buf, tag);
            codec::put_str(&mut buf, "payload");
            let err = Option::<String>::get(&mut Cursor::new(&buf)).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains(&tag.to_string())),
                "tag {tag}: {err}"
            );
        }
    }

    #[test]
    fn wire_bool_is_exactly_zero_or_one() {
        assert_eq!(wire_bytes(&true), [1, 0, 0, 0]);
        assert_eq!(wire_bytes(&false), [0, 0, 0, 0]);
        for word in [2u32, 256, u32::MAX] {
            let buf = wire_bytes(&word);
            assert!(bool::get(&mut Cursor::new(&buf)).is_err(), "word {word}");
        }
    }

    #[test]
    fn wire_list_count_does_not_size_the_allocation() {
        // A count the payload cannot hold is a clean error — reading it
        // must not try to reserve 2^32 elements first.
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, u32::MAX);
        codec::put_str(&mut buf, "only one");
        assert!(Vec::<String>::get(&mut Cursor::new(&buf)).is_err());
        assert!(Vec::<(String, String)>::get(&mut Cursor::new(&buf)).is_err());
        assert!(Vec::<Vec<u8>>::get(&mut Cursor::new(&buf)).is_err());
        // A list longer than the pre-allocation bound still decodes: it
        // grows as its elements arrive.
        let long: Vec<u32> = (0..5000).collect();
        let buf = wire_bytes(&long);
        assert_eq!(Vec::<u32>::get(&mut Cursor::new(&buf)).unwrap(), long);
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum ProbeClass {
        Quiet,
        Loud,
    }

    crate::op_table! {
        /// A table over every `Wire` impl the codec ships.
        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Probe: ProbeClass {
            /// A row without fields is a unit variant.
            1 Unit "unit" Quiet,
            2 Scalars "scalars" Loud {
                a: u32,
                b: u64,
                c: i64,
                d: bool,
            },
            3 Text "text" Loud {
                s: String,
                o: Option<String>,
                n: Option<u64>,
            },
            7 Lists "lists" Quiet {
                names: Vec<String>,
                pairs: Vec<(String, u64)>,
                blobs: Vec<Vec<u8>>,
                raw: Vec<u8>,
            },
        }
    }

    #[test]
    fn op_table_generates_codec_names_and_classes() {
        assert_eq!(
            Probe::OPS,
            [(1, "unit"), (2, "scalars"), (3, "text"), (7, "lists")]
        );
        let text = Probe::Text {
            s: "Paper".into(),
            o: None,
            n: Some(3),
        };
        assert_eq!(text.op_name(), "text");
        assert_eq!(text.class(), ProbeClass::Loud);
        assert_eq!(Probe::Unit.class(), ProbeClass::Quiet);
        assert_eq!(Probe::Unit.encode(), [1, 0, 0, 0]);
        assert_eq!(Probe::decode(&text.encode()).unwrap(), text);

        // The table walk, over a fixture spelled by the encoder itself.
        let rows = [
            Probe::Unit,
            Probe::Scalars {
                a: 5,
                b: 7,
                c: -3,
                d: true,
            },
            text.clone(),
            Probe::Lists {
                names: vec!["Paper".into()],
                pairs: vec![("Paper".into(), 7)],
                blobs: vec![vec![0, 0xff, 0x62], Vec::new()],
                raw: vec![0, 0xff, 0x62],
            },
        ];
        let fixture: Vec<String> = rows
            .iter()
            .map(|r| {
                let hex: String = r.encode().iter().map(|b| format!("{b:02x}")).collect();
                format!("{} {hex}", r.op_name())
            })
            .collect();
        assert_eq!(Probe::check_golden(&fixture.join("\n")), rows);

        let unknown = Probe::decode(&wire_bytes(&4u32)).unwrap_err();
        assert!(
            matches!(&unknown, StorageError::Corrupt { detail, .. } if detail.contains("unknown Probe opcode 4")),
            "{unknown}"
        );
        let mut trailing = text.encode();
        trailing.push(0);
        let err = Probe::decode(&trailing).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains("trailing bytes after `text`")),
            "{err}"
        );
    }

    use proptest::prelude::*;

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0x20u8..0x7f, 0..12)
            .prop_map(|b| b.into_iter().map(char::from).collect())
    }

    fn probe() -> impl Strategy<Value = Probe> {
        let bytes = || prop::collection::vec(any::<u8>(), 0..9);
        (
            0u8..4,
            (any::<u32>(), any::<u64>(), any::<i64>(), any::<bool>()),
            (text(), text(), any::<bool>(), any::<bool>()),
            (
                prop::collection::vec(text(), 0..4),
                prop::collection::vec((text(), any::<u64>()), 0..4),
                prop::collection::vec(bytes(), 0..4),
                bytes(),
            ),
        )
            .prop_map(
                |(row, (a, b, c, d), (s, o, has_o, has_n), lists)| match row {
                    0 => Probe::Unit,
                    1 => Probe::Scalars { a, b, c, d },
                    2 => Probe::Text {
                        s,
                        o: has_o.then_some(o),
                        n: has_n.then_some(b),
                    },
                    _ => Probe::Lists {
                        names: lists.0,
                        pairs: lists.1,
                        blobs: lists.2,
                        raw: lists.3,
                    },
                },
            )
    }

    /// Whatever the bytes, decoding yields `Err` or a value that
    /// encodes back to exactly those bytes — never a panic, never a
    /// second accepted spelling of the same value.
    fn refused_or_canonical(bytes: &[u8]) {
        if let Ok(v) = Probe::decode(bytes) {
            assert_eq!(v.encode(), bytes, "{v:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

        #[test]
        fn op_table_decode_is_total_and_canonical(
            v in probe(),
            noise in prop::collection::vec(any::<u8>(), 0..64),
            flip in (any::<usize>(), any::<u8>()),
        ) {
            let bytes = v.encode();
            prop_assert_eq!(Probe::decode(&bytes).unwrap(), v);
            for cut in 0..bytes.len() {
                prop_assert!(Probe::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
            }
            for extra in [0u8, 1, 0xff] {
                let mut longer = bytes.clone();
                longer.push(extra);
                prop_assert!(Probe::decode(&longer).is_err(), "extension by {extra}");
            }
            let mut corrupted = bytes.clone();
            corrupted[flip.0 % bytes.len()] = flip.1;
            refused_or_canonical(&corrupted);
            // Arbitrary bytes, bare and behind each known opcode (so the
            // field decoders, not just the opcode check, see them).
            refused_or_canonical(&noise);
            for (op, _) in Probe::OPS {
                let mut framed = wire_bytes(op);
                framed.extend_from_slice(&noise);
                refused_or_canonical(&framed);
            }
        }
    }
}
