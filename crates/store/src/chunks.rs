//! Compressed time-series chunks: delta-of-delta timestamps + XOR values.
//!
//! One series is a run of immutable [`SealedChunk`]s (Gorilla-style bit
//! encoding, fixed point capacity) followed by one small uncompressed
//! head buffer that absorbs in-order appends and is sealed when full.
//! Out-of-order upserts decode the owning chunk, splice the point in and
//! re-encode, splitting the chunk when it outgrows its capacity — a
//! deterministic, single-writer discipline, so same-seed runs produce
//! byte-identical chunk layouts.
//!
//! The encoding is bit-lossless for every non-NaN `f64` (`-0.0`,
//! subnormals and infinities round-trip exactly); NaN is rejected at
//! encode time because the store's replace-on-equal-timestamp and
//! min/max semantics are undefined for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default number of points per sealed chunk. 256 keeps the decode
/// working set inside L1 while amortizing per-chunk headers to well
/// under a bit per sample.
pub const DEFAULT_CHUNK_CAPACITY: usize = 256;

/// Error raised when a value cannot be chunk-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeError {
    /// NaN values are not storable (comparison and replace semantics
    /// would be undefined).
    NotANumber,
    /// Timestamps must be strictly increasing within a chunk.
    UnsortedTimestamps,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::NotANumber => f.write_str("NaN values cannot be encoded"),
            EncodeError::UnsortedTimestamps => {
                f.write_str("chunk timestamps must be strictly increasing")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Bit-level writer over a growing byte buffer (MSB-first within bytes).
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0..8; 0 means byte-aligned).
    used: u32,
}

impl BitWriter {
    fn write_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("byte pushed above");
            *last |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    /// Writes the low `count` bits of `value`, most significant first.
    fn write_bits(&mut self, value: u64, count: u32) {
        for i in (0..count).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Bit-level reader over an encoded byte slice.
#[derive(Debug)]
/// MSB-first reader over the encoded stream, buffered a word at a time
/// so the per-point decode loop never touches the byte slice more than
/// once per eight bits.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into `buf`.
    next: usize,
    /// Unread bits, MSB-aligned.
    buf: u64,
    /// Number of valid bits in `buf`.
    avail: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut reader = BitReader {
            bytes,
            next: 0,
            buf: 0,
            avail: 0,
        };
        reader.refill();
        reader
    }

    #[inline]
    fn refill(&mut self) {
        // Hot path: one aligned 32-bit load restores the `avail >= 32`
        // invariant the decoders rely on.
        if self.avail <= 32 && self.next + 4 <= self.bytes.len() {
            let word: [u8; 4] = self.bytes[self.next..self.next + 4]
                .try_into()
                .expect("four bytes");
            self.buf |= u64::from(u32::from_be_bytes(word)) << (32 - self.avail);
            self.avail += 32;
            self.next += 4;
            return;
        }
        // Tail of the stream: byte at a time.
        while self.avail <= 56 && self.next < self.bytes.len() {
            self.buf |= u64::from(self.bytes[self.next]) << (56 - self.avail);
            self.avail += 8;
            self.next += 1;
        }
    }

    /// The next (up to) 64 bits of the stream, MSB-aligned, without
    /// consuming them. At least 32 bits are valid while unread bytes
    /// remain (the invariant `consume` maintains).
    #[inline]
    fn peek(&self) -> u64 {
        self.buf
    }

    /// Discards `count` already-peeked bits (`count <= avail`).
    #[inline]
    fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.avail, "bit stream exhausted");
        self.buf <<= count;
        self.avail -= count;
        if self.avail < 32 {
            self.refill();
        }
    }

    /// Reads up to 32 bits in one buffered step.
    #[inline]
    fn read_chunk(&mut self, count: u32) -> u64 {
        debug_assert!((1..=32).contains(&count));
        if self.avail < count {
            self.refill();
        }
        debug_assert!(self.avail >= count, "bit stream exhausted");
        let out = self.buf >> (64 - count);
        self.consume(count);
        out
    }

    #[inline]
    fn read_bits(&mut self, count: u32) -> u64 {
        if count > 32 {
            let hi = self.read_chunk(count - 32);
            return (hi << 32) | self.read_chunk(32);
        }
        self.read_chunk(count)
    }
}

/// Maps a signed delta-of-delta onto an unsigned zig-zag code so small
/// magnitudes of either sign take few bits.
fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// One immutable compressed chunk: a strictly-increasing timestamp run
/// with its values, Gorilla-encoded.
///
/// Layout: 8-byte first timestamp, 8-byte first value (raw bits), then
/// per point a delta-of-delta timestamp code and an XOR value code.
/// `end_ms` and `last_value` are kept in the header so range queries can
/// skip chunks and `latest` never decodes; `min`/`max` are the
/// forward-fold extrema, letting windowed min/max/count queries absorb
/// a wholly-covered chunk without decoding it.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    /// Number of points in the chunk.
    count: u32,
    /// Timestamp of the first point.
    start_ms: u64,
    /// Timestamp of the last point.
    end_ms: u64,
    /// Value of the last point (for O(1) `latest`).
    last_value: f64,
    /// Minimum value, folded in timestamp order.
    min: f64,
    /// Maximum value, folded in timestamp order.
    max: f64,
    /// The encoded stream.
    data: Vec<u8>,
}

impl SealedChunk {
    /// Encodes a sorted, strictly-increasing run of points.
    ///
    /// # Errors
    ///
    /// [`EncodeError::NotANumber`] if any value is NaN;
    /// [`EncodeError::UnsortedTimestamps`] if timestamps are not
    /// strictly increasing. Empty input is rejected as unsorted.
    pub fn try_encode(points: &[(u64, f64)]) -> Result<SealedChunk, EncodeError> {
        let Some(&(first_ts, first_val)) = points.first() else {
            return Err(EncodeError::UnsortedTimestamps);
        };
        if points.iter().any(|(_, v)| v.is_nan()) {
            return Err(EncodeError::NotANumber);
        }
        if points.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(EncodeError::UnsortedTimestamps);
        }
        let mut w = BitWriter::default();
        w.write_bits(first_ts, 64);
        w.write_bits(first_val.to_bits(), 64);
        let mut prev_ts = first_ts;
        let mut prev_delta: u64 = 0;
        let mut prev_bits = first_val.to_bits();
        // Previous XOR window: (leading zeros, meaningful length).
        let mut window: Option<(u32, u32)> = None;
        for &(ts, value) in &points[1..] {
            let delta = ts - prev_ts;
            let dod = delta as i128 - prev_delta as i128;
            let zz = zigzag(dod);
            // Delta-of-delta buckets, Gorilla-style with a 64-bit raw
            // delta escape so any u64 timestamp pair encodes.
            if dod == 0 {
                w.write_bit(false);
            } else if zz < (1 << 7) {
                w.write_bits(0b10, 2);
                w.write_bits(zz as u64, 7);
            } else if zz < (1 << 9) {
                w.write_bits(0b110, 3);
                w.write_bits(zz as u64, 9);
            } else if zz < (1 << 12) {
                w.write_bits(0b1110, 4);
                w.write_bits(zz as u64, 12);
            } else if zz < (1 << 32) {
                w.write_bits(0b11110, 5);
                w.write_bits(zz as u64, 32);
            } else {
                w.write_bits(0b11111, 5);
                w.write_bits(delta, 64);
            }
            prev_delta = delta;
            prev_ts = ts;
            // XOR value encoding.
            let bits = value.to_bits();
            let xor = bits ^ prev_bits;
            prev_bits = bits;
            if xor == 0 {
                w.write_bit(false);
            } else {
                w.write_bit(true);
                let leading = xor.leading_zeros().min(31);
                let meaningful = 64 - leading - xor.trailing_zeros();
                let fits = window
                    .map(|(wl, wm)| leading >= wl && wl + wm >= leading + meaningful)
                    .unwrap_or(false);
                if fits {
                    let (wl, wm) = window.expect("fits implies a window");
                    w.write_bit(false);
                    w.write_bits(xor >> (64 - wl - wm), wm);
                } else {
                    w.write_bit(true);
                    w.write_bits(leading as u64, 5);
                    // meaningful is 1..=64; store len-1 in 6 bits.
                    w.write_bits((meaningful - 1) as u64, 6);
                    w.write_bits(xor >> (64 - leading - meaningful), meaningful);
                    window = Some((leading, meaningful));
                }
            }
        }
        let &(end_ms, last_value) = points.last().expect("non-empty checked above");
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, v) in points {
            min = f64::min(min, v);
            max = f64::max(max, v);
        }
        Ok(SealedChunk {
            count: points.len() as u32,
            start_ms: first_ts,
            end_ms,
            last_value,
            min,
            max,
            data: w.into_bytes(),
        })
    }

    /// Decodes every point, appending to `out` in timestamp order.
    pub fn decode_into(&self, out: &mut Vec<(u64, f64)>) {
        out.reserve(self.count as usize);
        let mut decoder = ChunkDecoder::new(self);
        while let Some(point) = decoder.next_point() {
            out.push(point);
        }
    }

    /// Decodes into a fresh vector.
    pub fn decode(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the chunk holds no points (never true for an encoded one).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// First timestamp.
    pub fn start_ms(&self) -> u64 {
        self.start_ms
    }

    /// Last timestamp.
    pub fn end_ms(&self) -> u64 {
        self.end_ms
    }

    /// Minimum value (forward-fold order).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum value (forward-fold order).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Encoded payload size in bytes (header fields excluded).
    pub fn encoded_bytes(&self) -> usize {
        self.data.len()
    }
}

fn apply_dod(prev_delta: u64, zz: u64) -> u64 {
    (prev_delta as i128 + unzigzag(zz as u128)) as u64
}

/// Streaming decoder over one sealed chunk: yields points one at a
/// time without materializing a buffer. The control codes are decoded
/// by peeking a buffered word and counting leading ones, so the hot
/// per-point path takes a handful of shifts instead of bit-at-a-time
/// reads — this is what makes compressed range scans beat a B-tree
/// walk over raw points.
struct ChunkDecoder<'a> {
    r: BitReader<'a>,
    remaining: u32,
    ts: u64,
    delta: u64,
    bits: u64,
    window: (u32, u32),
    started: bool,
}

impl<'a> ChunkDecoder<'a> {
    fn new(chunk: &'a SealedChunk) -> Self {
        ChunkDecoder {
            r: BitReader::new(&chunk.data),
            remaining: chunk.count,
            ts: 0,
            delta: 0,
            bits: 0,
            window: (0, 0),
            started: false,
        }
    }

    #[inline]
    fn next_point(&mut self) -> Option<(u64, f64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if !self.started {
            self.started = true;
            self.ts = self.r.read_bits(64);
            self.bits = self.r.read_bits(64);
            return Some((self.ts, f64::from_bits(self.bits)));
        }
        // Timestamp: '0' | '10'+7 | '110'+9 | '1110'+12 | '11110'+32
        // zig-zag dod bits | '11111'+64 raw delta. The run of leading
        // ones is the bucket index.
        let w = self.r.peek();
        let ones = w.leading_ones().min(5);
        self.delta = match ones {
            0 => {
                self.r.consume(1);
                self.delta
            }
            5 => {
                self.r.consume(5);
                self.r.read_bits(64)
            }
            4 => {
                self.r.consume(5);
                apply_dod(self.delta, self.r.read_chunk(32))
            }
            _ => {
                const WIDTH: [u32; 4] = [0, 7, 9, 12];
                let width = WIDTH[ones as usize];
                let code = (w << (ones + 1)) >> (64 - width);
                self.r.consume(ones + 1 + width);
                apply_dod(self.delta, code)
            }
        };
        self.ts = self.ts.wrapping_add(self.delta);
        // Value: '0' identical | '10' reuse window | '11'+5-bit
        // leading+6-bit (len-1) header, then the meaningful XOR bits.
        let w = self.r.peek();
        if w >> 63 == 1 {
            let (leading, meaningful) = if w >> 62 == 0b11 {
                let leading = ((w >> 57) & 0x1F) as u32;
                let meaningful = ((w >> 51) & 0x3F) as u32 + 1;
                self.r.consume(13);
                self.window = (leading, meaningful);
                self.window
            } else {
                self.r.consume(2);
                self.window
            };
            let xor = self.r.read_bits(meaningful) << (64 - leading - meaningful);
            self.bits ^= xor;
        } else {
            self.r.consume(1);
        }
        Some((self.ts, f64::from_bits(self.bits)))
    }
}

/// Rolling whole-series aggregates, accumulated in ascending-timestamp
/// order so they are bit-for-bit identical to a fresh forward scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollingAgg {
    /// Number of points.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Forward-order sum.
    pub sum: f64,
}

impl RollingAgg {
    /// The empty fold state.
    pub fn empty() -> Self {
        RollingAgg {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Folds in one value appended after every accumulated point.
    pub fn fold(&mut self, value: f64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
    }
}

/// One series as stored by the chunked backend: sealed chunks in
/// timestamp order, then the uncompressed head buffer (every head
/// timestamp is greater than the last sealed timestamp).
///
/// Whole-series aggregates are cached lazily: the in-order append path
/// folds into the cache, while out-of-order upserts, replacements and
/// prunes merely *invalidate* it — the re-fold over the surviving
/// suffix happens on the next [`rolling_agg`](ChunkSeries::rolling_agg)
/// call, not eagerly per mutation (a burst of prunes costs one refold,
/// not one per prune).
#[derive(Debug)]
pub struct ChunkSeries {
    capacity: usize,
    sealed: Vec<SealedChunk>,
    head: Vec<(u64, f64)>,
    count: usize,
    agg: OnceLock<RollingAgg>,
    /// Lazy aggregate re-folds performed (observability + regression
    /// tests pinning the no-eager-rescan behavior).
    refolds: AtomicU64,
}

impl Clone for ChunkSeries {
    fn clone(&self) -> Self {
        ChunkSeries {
            capacity: self.capacity,
            sealed: self.sealed.clone(),
            head: self.head.clone(),
            count: self.count,
            agg: self.agg.clone(),
            refolds: AtomicU64::new(self.refolds.load(Ordering::Relaxed)),
        }
    }
}

impl ChunkSeries {
    /// Creates an empty series with the given chunk capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a split must produce two non-empty
    /// halves).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "chunk capacity must be at least 2");
        // Pre-seed the cache so a pure append run folds incrementally
        // from the start and never pays a refold.
        let agg = OnceLock::new();
        agg.set(RollingAgg::empty()).expect("fresh lock");
        ChunkSeries {
            capacity,
            sealed: Vec::new(),
            head: Vec::new(),
            count: 0,
            agg,
            refolds: AtomicU64::new(0),
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of chunks (sealed plus the head buffer when non-empty).
    pub fn chunk_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.head.is_empty())
    }

    /// Encoded bytes across sealed chunks plus the raw head buffer.
    pub fn storage_bytes(&self) -> usize {
        self.sealed
            .iter()
            .map(SealedChunk::encoded_bytes)
            .sum::<usize>()
            + self.head.len() * std::mem::size_of::<(u64, f64)>()
    }

    /// Lazy aggregate re-folds performed so far.
    pub fn refolds(&self) -> u64 {
        self.refolds.load(Ordering::Relaxed)
    }

    fn last_ts(&self) -> Option<u64> {
        if let Some(&(ts, _)) = self.head.last() {
            return Some(ts);
        }
        self.sealed.last().map(|c| c.end_ms)
    }

    /// First (oldest) timestamp.
    pub fn first_ts(&self) -> Option<u64> {
        if let Some(chunk) = self.sealed.first() {
            return Some(chunk.start_ms);
        }
        self.head.first().map(|&(ts, _)| ts)
    }

    /// Latest point, O(1): the head's last entry or the last sealed
    /// chunk's header.
    pub fn latest(&self) -> Option<(u64, f64)> {
        if let Some(&last) = self.head.last() {
            return Some(last);
        }
        self.sealed.last().map(|c| (c.end_ms, c.last_value))
    }

    fn seal_head(&mut self) {
        let chunk = SealedChunk::try_encode(&self.head)
            .expect("head is sorted, strictly increasing and NaN-free");
        self.sealed.push(chunk);
        self.head.clear();
    }

    /// Inserts or replaces the point at `ts`. Returns `true` when a new
    /// point was added, `false` when an existing timestamp's value was
    /// replaced.
    ///
    /// NaN values must be filtered by the caller
    /// ([`ManagementStore::insert`](crate::ManagementStore::insert)
    /// drops them); they would poison the encoded stream.
    pub fn upsert(&mut self, ts: u64, value: f64) -> bool {
        debug_assert!(!value.is_nan(), "NaN must be rejected by the caller");
        // Fast path: strictly-newer append.
        if self.last_ts().is_none_or(|last| ts > last) {
            self.head.push((ts, value));
            self.count += 1;
            if let Some(agg) = self.agg.get_mut() {
                agg.fold(value);
            }
            if self.head.len() >= self.capacity {
                self.seal_head();
            }
            return true;
        }
        // Out-of-order or replacement: find the owning region.
        let sealed_end = self.sealed.last().map(|c| c.end_ms);
        if sealed_end.is_none_or(|end| ts > end) {
            // Belongs to the head buffer.
            let added = match self.head.binary_search_by_key(&ts, |&(t, _)| t) {
                Ok(i) => {
                    self.head[i].1 = value;
                    false
                }
                Err(i) => {
                    self.head.insert(i, (ts, value));
                    self.count += 1;
                    true
                }
            };
            self.agg.take();
            if self.head.len() >= self.capacity {
                self.seal_head();
            }
            return added;
        }
        // Belongs to a sealed chunk: the first whose end covers ts
        // (ts <= end always exists here); fall back to chunk 0 for
        // points older than everything stored.
        let idx = self.sealed.partition_point(|c| c.end_ms < ts);
        let mut points = self.sealed[idx].decode();
        let added = match points.binary_search_by_key(&ts, |&(t, _)| t) {
            Ok(i) => {
                points[i].1 = value;
                false
            }
            Err(i) => {
                points.insert(i, (ts, value));
                self.count += 1;
                true
            }
        };
        self.agg.take();
        if points.len() > self.capacity {
            // Deterministic split at the midpoint.
            let right = points.split_off(points.len() / 2);
            self.sealed[idx] =
                SealedChunk::try_encode(&points).expect("decoded run stays sorted and NaN-free");
            let right_chunk =
                SealedChunk::try_encode(&right).expect("decoded run stays sorted and NaN-free");
            self.sealed.insert(idx + 1, right_chunk);
        } else {
            self.sealed[idx] =
                SealedChunk::try_encode(&points).expect("decoded run stays sorted and NaN-free");
        }
        added
    }

    /// Drops every point with timestamp `< horizon_ms`; returns how many
    /// were removed. Whole chunks in the past are dropped without
    /// decoding; at most one boundary chunk is re-encoded, and a
    /// boundary runt merges into its successor when the pair fits one
    /// chunk. The aggregate cache is invalidated, not recomputed — see
    /// the type-level note.
    pub fn prune_before(&mut self, horizon_ms: u64) -> usize {
        let mut removed = 0;
        // Whole sealed chunks strictly before the horizon.
        let drop_n = self.sealed.partition_point(|c| c.end_ms < horizon_ms);
        for chunk in self.sealed.drain(..drop_n) {
            removed += chunk.len();
        }
        // Boundary chunk straddling the horizon.
        if let Some(first) = self.sealed.first() {
            if first.start_ms < horizon_ms {
                let mut points = first.decode();
                let cut = points.partition_point(|&(t, _)| t < horizon_ms);
                removed += cut;
                points.drain(..cut);
                // A runt merges into its successor when the pair fits.
                let merge_with_next = points.len() < self.capacity / 4
                    && self
                        .sealed
                        .get(1)
                        .is_some_and(|next| points.len() + next.len() <= self.capacity);
                if merge_with_next {
                    self.sealed[1].decode_into(&mut points);
                    self.sealed.remove(0);
                }
                if points.is_empty() {
                    self.sealed.remove(0);
                } else {
                    self.sealed[0] = SealedChunk::try_encode(&points)
                        .expect("decoded run stays sorted and NaN-free");
                }
            }
        }
        // Head prefix.
        if self.sealed.is_empty() {
            let cut = self.head.partition_point(|&(t, _)| t < horizon_ms);
            removed += cut;
            self.head.drain(..cut);
        }
        if removed > 0 {
            self.count -= removed;
            self.agg.take();
        }
        removed
    }

    /// Whole-series rolling aggregates: O(1) after an in-order append
    /// run; re-folded lazily (forward scan over the surviving points)
    /// after an out-of-order upsert, replacement or prune invalidated
    /// the cache.
    pub fn rolling_agg(&self) -> RollingAgg {
        *self.agg.get_or_init(|| {
            self.refolds.fetch_add(1, Ordering::Relaxed);
            let mut agg = RollingAgg::empty();
            self.for_each_in_range(0, u64::MAX, |_, v| agg.fold(v));
            agg
        })
    }

    /// Points in `[from_ms, to_ms)`, in timestamp order. Sealed chunks
    /// wholly outside the window are skipped without decoding.
    pub fn iter_range(&self, from_ms: u64, to_ms: u64) -> RangeIter<'_> {
        let first_chunk = self.sealed.partition_point(|c| c.end_ms < from_ms);
        let head_start = self.head.partition_point(|&(t, _)| t < from_ms);
        RangeIter {
            series: self,
            from_ms,
            to_ms,
            chunk_idx: first_chunk,
            buf: Vec::new(),
            buf_pos: 0,
            in_head: false,
            head_pos: head_start,
        }
    }

    /// Streams every point in `[from_ms, to_ms)` into `visit`, in
    /// timestamp order — the same stream as
    /// [`iter_range`](ChunkSeries::iter_range), but decoded straight
    /// into the callback with no intermediate buffer and no per-point
    /// bounds checks on chunks that lie wholly inside the window. This
    /// is the hot path behind windowed range queries.
    pub fn for_each_in_range(&self, from_ms: u64, to_ms: u64, visit: impl FnMut(u64, f64)) {
        struct Points<F>(F);
        impl<F: FnMut(u64, f64)> RunVisitor for Points<F> {
            fn point(&mut self, ts: u64, value: f64) {
                (self.0)(ts, value);
            }
        }
        self.for_each_run(from_ms, to_ms, &mut Points(visit));
    }

    /// Like [`for_each_in_range`](ChunkSeries::for_each_in_range), but
    /// offers every sealed chunk lying wholly inside `[from_ms, to_ms)`
    /// to [`RunVisitor::chunk`] first: when it returns `true` the chunk
    /// is consumed via its header summary and never decoded. Windowed
    /// min/max/count queries use this to skip decompression entirely
    /// for interior chunks.
    pub fn for_each_run(&self, from_ms: u64, to_ms: u64, sink: &mut impl RunVisitor) {
        let first_chunk = self.sealed.partition_point(|c| c.end_ms < from_ms);
        for chunk in &self.sealed[first_chunk..] {
            if chunk.start_ms() >= to_ms {
                break;
            }
            if chunk.start_ms() >= from_ms && chunk.end_ms() < to_ms {
                if sink.chunk(chunk) {
                    continue;
                }
                let mut decoder = ChunkDecoder::new(chunk);
                while let Some((t, v)) = decoder.next_point() {
                    sink.point(t, v);
                }
            } else {
                let mut decoder = ChunkDecoder::new(chunk);
                while let Some((t, v)) = decoder.next_point() {
                    if t < from_ms {
                        continue;
                    }
                    if t >= to_ms {
                        break;
                    }
                    sink.point(t, v);
                }
            }
        }
        let head_start = self.head.partition_point(|&(t, _)| t < from_ms);
        for &(t, v) in &self.head[head_start..] {
            if t >= to_ms {
                break;
            }
            sink.point(t, v);
        }
    }
}

/// Receiver for [`ChunkSeries::for_each_run`]: decoded in-range points
/// stream into [`point`](RunVisitor::point); a sealed chunk lying
/// wholly inside the range is first offered to
/// [`chunk`](RunVisitor::chunk), which may consume it via its header
/// summary (count/min/max) by returning `true`.
pub trait RunVisitor {
    /// One decoded point inside the queried range, in timestamp order.
    fn point(&mut self, ts: u64, value: f64);

    /// Offered a chunk wholly inside the range; return `true` to
    /// consume it without decoding. The default never absorbs.
    fn chunk(&mut self, chunk: &SealedChunk) -> bool {
        let _ = chunk;
        false
    }
}

/// Iterator over one series' points inside a half-open window.
///
/// Decodes one sealed chunk at a time into an internal buffer, then
/// walks the head slice; points stream in strictly increasing timestamp
/// order.
#[derive(Debug)]
pub struct RangeIter<'a> {
    series: &'a ChunkSeries,
    from_ms: u64,
    to_ms: u64,
    chunk_idx: usize,
    buf: Vec<(u64, f64)>,
    buf_pos: usize,
    in_head: bool,
    head_pos: usize,
}

impl Iterator for RangeIter<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        loop {
            if self.in_head {
                let &(ts, v) = self.series.head.get(self.head_pos)?;
                if ts >= self.to_ms {
                    return None;
                }
                self.head_pos += 1;
                return Some((ts, v));
            }
            if self.buf_pos < self.buf.len() {
                let (ts, v) = self.buf[self.buf_pos];
                if ts >= self.to_ms {
                    return None;
                }
                self.buf_pos += 1;
                return Some((ts, v));
            }
            match self.series.sealed.get(self.chunk_idx) {
                Some(chunk) if chunk.start_ms < self.to_ms => {
                    self.buf.clear();
                    chunk.decode_into(&mut self.buf);
                    self.buf_pos = self.buf.partition_point(|&(t, _)| t < self.from_ms);
                    self.chunk_idx += 1;
                }
                _ => {
                    self.in_head = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regular(n: usize) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| (i as u64 * 60_000, 40.0 + (i % 7) as f64))
            .collect()
    }

    #[test]
    fn round_trip_regular_series() {
        let points = regular(500);
        let chunk = SealedChunk::try_encode(&points).unwrap();
        assert_eq!(chunk.decode(), points);
        assert_eq!(chunk.len(), 500);
        assert_eq!(chunk.start_ms(), 0);
        assert_eq!(chunk.end_ms(), 499 * 60_000);
    }

    #[test]
    fn round_trip_adversarial_bits() {
        let points = vec![
            (0, -0.0),
            (1, 0.0),
            (2, f64::MIN_POSITIVE / 2.0), // subnormal
            (3, f64::INFINITY),
            (4, f64::NEG_INFINITY),
            (5, f64::MAX),
            (u64::MAX - 1, f64::MIN),
        ];
        let chunk = SealedChunk::try_encode(&points).unwrap();
        let decoded = chunk.decode();
        assert_eq!(decoded.len(), points.len());
        for ((t0, v0), (t1, v1)) in points.iter().zip(&decoded) {
            assert_eq!(t0, t1);
            assert_eq!(v0.to_bits(), v1.to_bits(), "bit-exact round trip");
        }
    }

    #[test]
    fn nan_and_unsorted_are_rejected() {
        assert_eq!(
            SealedChunk::try_encode(&[(0, f64::NAN)]),
            Err(EncodeError::NotANumber)
        );
        assert_eq!(
            SealedChunk::try_encode(&[(5, 1.0), (5, 2.0)]),
            Err(EncodeError::UnsortedTimestamps)
        );
        assert_eq!(
            SealedChunk::try_encode(&[]),
            Err(EncodeError::UnsortedTimestamps)
        );
    }

    #[test]
    fn regular_cadence_compresses_hard() {
        // Integer-valued gauge at a fixed cadence: the workload SNMP
        // actually produces. Must beat 4 bytes/sample comfortably.
        let points: Vec<(u64, f64)> = (0..256)
            .map(|i| (i as u64 * 60_000, ((i * 13) % 100) as f64))
            .collect();
        let chunk = SealedChunk::try_encode(&points).unwrap();
        let bps = chunk.encoded_bytes() as f64 / points.len() as f64;
        assert!(bps < 4.0, "bytes/sample {bps}");
    }

    #[test]
    fn series_appends_seal_and_iterate() {
        let mut s = ChunkSeries::new(64);
        for (ts, v) in regular(200) {
            assert!(s.upsert(ts, v));
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.chunk_count(), 4); // 3 sealed + head(8)
        let all: Vec<_> = s.iter_range(0, u64::MAX).collect();
        assert_eq!(all, regular(200));
        assert_eq!(s.latest(), Some((199 * 60_000, 40.0 + (199 % 7) as f64)));
        assert_eq!(s.first_ts(), Some(0));
    }

    #[test]
    fn out_of_order_upsert_lands_sorted() {
        let mut s = ChunkSeries::new(8);
        for i in [0u64, 2, 4, 6, 8, 10, 12, 14, 16, 18] {
            s.upsert(i * 1000, i as f64);
        }
        // Into a sealed chunk, into the head, and a replacement.
        assert!(s.upsert(3_000, 99.0));
        assert!(s.upsert(17_000, 88.0));
        assert!(!s.upsert(4_000, 77.0));
        let all: Vec<_> = s.iter_range(0, u64::MAX).collect();
        let ts: Vec<u64> = all.iter().map(|&(t, _)| t).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
        assert_eq!(s.len(), 12);
        assert!(all.contains(&(3_000, 99.0)));
        assert!(all.contains(&(4_000, 77.0)));
        assert!(all.contains(&(17_000, 88.0)));
    }

    #[test]
    fn upsert_splits_full_chunks() {
        let mut s = ChunkSeries::new(4);
        for i in [0u64, 10, 20, 30, 40, 50, 60, 70] {
            s.upsert(i * 1000, i as f64);
        }
        let before = s.chunk_count();
        // Insert inside the first sealed chunk until it splits.
        s.upsert(5_000, 1.0);
        assert!(s.chunk_count() > before);
        let ts: Vec<u64> = s.iter_range(0, u64::MAX).map(|(t, _)| t).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn prune_drops_whole_chunks_without_refolding_eagerly() {
        let mut s = ChunkSeries::new(16);
        for (ts, v) in regular(100) {
            s.upsert(ts, v);
        }
        let _ = s.rolling_agg();
        assert_eq!(s.refolds(), 0, "in-order appends never refold");
        let removed = s.prune_before(50 * 60_000);
        assert_eq!(removed, 50);
        assert_eq!(s.len(), 50);
        s.prune_before(60 * 60_000);
        s.prune_before(70 * 60_000);
        assert_eq!(s.refolds(), 0, "prunes only invalidate");
        let agg = s.rolling_agg();
        assert_eq!(s.refolds(), 1, "one refold for the whole burst");
        let mut fresh = RollingAgg::empty();
        for (_, v) in s.iter_range(0, u64::MAX) {
            fresh.fold(v);
        }
        assert_eq!(agg, fresh);
    }

    #[test]
    fn prune_merges_boundary_runts() {
        let mut s = ChunkSeries::new(16);
        for (ts, v) in regular(64) {
            s.upsert(ts, v);
        }
        // Cut so only 2 points survive in the boundary chunk (runt).
        let removed = s.prune_before(14 * 60_000);
        assert_eq!(removed, 14);
        let ts: Vec<u64> = s.iter_range(0, u64::MAX).map(|(t, _)| t).collect();
        assert_eq!(ts.len(), 50);
        assert_eq!(ts[0], 14 * 60_000);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_iteration_respects_window_and_skips_chunks() {
        let mut s = ChunkSeries::new(8);
        for (ts, v) in regular(100) {
            s.upsert(ts, v);
        }
        let window: Vec<_> = s.iter_range(10 * 60_000, 20 * 60_000).collect();
        assert_eq!(window.len(), 10);
        assert_eq!(window[0].0, 10 * 60_000);
        assert_eq!(window.last().unwrap().0, 19 * 60_000);
        assert_eq!(s.iter_range(7_000_000, 8_000_000).count(), 0);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut s = ChunkSeries::new(8);
        for (ts, v) in regular(30) {
            s.upsert(ts, v);
        }
        let c = s.clone();
        assert_eq!(
            s.iter_range(0, u64::MAX).collect::<Vec<_>>(),
            c.iter_range(0, u64::MAX).collect::<Vec<_>>()
        );
        assert_eq!(s.rolling_agg(), c.rolling_agg());
    }
}
