//! CAST-style structural preprocessing + RLE compression for checkpoint
//! snapshots.
//!
//! Checkpoint snapshots are highly structured: a vector of pages, each a
//! `(last-modified seqno, bytes)` pair, where the seqnos are clustered
//! (most pages were last touched near a handful of checkpoints) and the
//! page bodies are repetitive (zero padding, sparse counters). A
//! general-purpose compressor applied to the naive interleaved encoding
//! sees metadata and payload bytes shuffled together and misses both
//! regularities.
//!
//! Following CAST's schema-less structural transformation, we split the
//! snapshot into homogeneous columns *before* compressing:
//!
//! 1. the last-modified column, delta-encoded (clustered seqnos become
//!    tiny varints),
//! 2. the page-length column as varints (uniform page sizes become
//!    one-byte entries),
//! 3. the concatenated page bodies, run-length encoded (zero padding
//!    collapses to a few bytes per run).
//!
//! The column split is what makes the cheap byte-level RLE effective:
//! without it, 8-byte little-endian seqnos interleave with payload and
//! break every run. The `column_split_beats_interleaved_rle` test pins
//! the footprint win of the split+delta pipeline over the same RLE on
//! the interleaved layout.

/// Errors from the decompression side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CastError {
    /// The buffer ended inside a value.
    Truncated,
    /// A token or length field was malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastError::Truncated => write!(f, "compressed stream truncated"),
            CastError::Malformed(what) => write!(f, "compressed stream malformed: {what}"),
        }
    }
}

impl std::error::Error for CastError {}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `buf`.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CastError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(CastError::Truncated);
        };
        *buf = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CastError::Malformed("varint longer than 64 bits"))
}

/// Minimum repeat length worth a run token: below this a literal is
/// smaller (a run token costs ≥ 3 bytes).
const MIN_RUN: usize = 4;

const TOK_LITERAL: u8 = 0;
const TOK_RUN: u8 = 1;

/// Byte-level run-length encoding: a token stream of
/// `0x00 <len> <bytes>` literals and `0x01 <len> <byte>` runs.
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut lit_start = 0;
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= MIN_RUN {
            if lit_start < i {
                out.push(TOK_LITERAL);
                put_varint(&mut out, (i - lit_start) as u64);
                out.extend_from_slice(&data[lit_start..i]);
            }
            out.push(TOK_RUN);
            put_varint(&mut out, run as u64);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    if lit_start < data.len() {
        out.push(TOK_LITERAL);
        put_varint(&mut out, (data.len() - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..]);
    }
    out
}

/// Inverse of [`rle_compress`].
pub fn rle_decompress(mut data: &[u8]) -> Result<Vec<u8>, CastError> {
    let mut out = Vec::with_capacity(data.len() * 2);
    while let Some((&tok, rest)) = data.split_first() {
        data = rest;
        let len = get_varint(&mut data)? as usize;
        match tok {
            TOK_LITERAL => {
                if data.len() < len {
                    return Err(CastError::Truncated);
                }
                out.extend_from_slice(&data[..len]);
                data = &data[len..];
            }
            TOK_RUN => {
                let Some((&b, rest)) = data.split_first() else {
                    return Err(CastError::Truncated);
                };
                data = rest;
                out.resize(out.len() + len, b);
            }
            _ => return Err(CastError::Malformed("unknown RLE token")),
        }
    }
    Ok(out)
}

/// Compresses snapshot pages with the column-split + delta/RLE pipeline.
/// `pages` is `(last-modified seqno, body)` per page, in page order.
pub fn compress_pages(pages: &[(u64, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, pages.len() as u64);
    // Column 1: last-modified seqnos, delta-encoded (zigzag so an
    // out-of-order column still encodes compactly).
    let mut prev: u64 = 0;
    for &(lm, _) in pages {
        let delta = lm.wrapping_sub(prev) as i64;
        put_varint(&mut out, zigzag(delta));
        prev = lm;
    }
    // Column 2: page lengths.
    for &(_, body) in pages {
        put_varint(&mut out, body.len() as u64);
    }
    // Column 3: concatenated bodies, run-length encoded.
    let total: usize = pages.iter().map(|(_, b)| b.len()).sum();
    let mut blob = Vec::with_capacity(total);
    for &(_, body) in pages {
        blob.extend_from_slice(body);
    }
    let packed = rle_compress(&blob);
    put_varint(&mut out, packed.len() as u64);
    out.extend_from_slice(&packed);
    out
}

/// Inverse of [`compress_pages`].
pub fn decompress_pages(mut data: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, CastError> {
    let n = get_varint(&mut data)? as usize;
    // An adversarial count must not allocate unboundedly.
    if n > data.len().saturating_add(1) {
        return Err(CastError::Malformed("page count exceeds stream"));
    }
    let mut lms = Vec::with_capacity(n);
    let mut prev: u64 = 0;
    for _ in 0..n {
        let delta = unzigzag(get_varint(&mut data)?);
        prev = prev.wrapping_add(delta as u64);
        lms.push(prev);
    }
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        lens.push(get_varint(&mut data)? as usize);
    }
    let packed_len = get_varint(&mut data)? as usize;
    if data.len() < packed_len {
        return Err(CastError::Truncated);
    }
    let blob = rle_decompress(&data[..packed_len])?;
    let want: usize = lens.iter().sum();
    if blob.len() != want {
        return Err(CastError::Malformed("body blob length mismatch"));
    }
    let mut pages = Vec::with_capacity(n);
    let mut at = 0;
    for (lm, len) in lms.into_iter().zip(lens) {
        pages.push((lm, blob[at..at + len].to_vec()));
        at += len;
    }
    Ok(pages)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The baseline "plain compression" layout: the same RLE applied
    /// to the naive interleaved encoding (per page: 8-byte seqno,
    /// 8-byte length, body).
    fn compress_pages_interleaved(pages: &[(u64, &[u8])]) -> Vec<u8> {
        let total: usize = pages.iter().map(|(_, b)| b.len() + 16).sum();
        let mut blob = Vec::with_capacity(total);
        for &(lm, body) in pages {
            blob.extend_from_slice(&lm.to_le_bytes());
            blob.extend_from_slice(&(body.len() as u64).to_le_bytes());
            blob.extend_from_slice(body);
        }
        rle_compress(&blob)
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let mut data = vec![0u8; 4096];
        data[100] = 7;
        data[2000..2010].copy_from_slice(b"abcdefghij");
        let packed = rle_compress(&data);
        assert!(packed.len() < data.len() / 10, "{} bytes", packed.len());
        assert_eq!(rle_decompress(&packed).unwrap(), data);
        // Incompressible data still roundtrips (with bounded overhead).
        let noisy: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(rle_decompress(&rle_compress(&noisy)).unwrap(), noisy);
    }

    #[test]
    fn rle_rejects_garbage() {
        assert!(rle_decompress(&[9, 1]).is_err());
        assert!(rle_decompress(&[TOK_LITERAL, 10, 1]).is_err());
        assert!(rle_decompress(&[TOK_RUN, 3]).is_err());
    }

    #[test]
    fn pages_roundtrip() {
        let p0 = vec![0u8; 512];
        let p1: Vec<u8> = (0..512u32).map(|i| (i % 7) as u8).collect();
        let p2 = b"short".to_vec();
        let pages: Vec<(u64, &[u8])> = vec![(16, &p0), (16, &p1), (32, &p2)];
        let packed = compress_pages(&pages);
        let back = decompress_pages(&packed).unwrap();
        assert_eq!(back.len(), 3);
        for ((lm, body), (blm, bbody)) in pages.iter().zip(&back) {
            assert_eq!(lm, blm);
            assert_eq!(*body, bbody.as_slice());
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let packed = compress_pages(&[]);
        assert_eq!(decompress_pages(&packed).unwrap(), Vec::new());
    }

    /// The structural claim: on a representative snapshot (clustered
    /// seqnos, zero-padded pages) the column split beats the same RLE on
    /// the interleaved layout.
    #[test]
    fn column_split_beats_interleaved_rle() {
        let bodies: Vec<Vec<u8>> = (0..64u64)
            .map(|i| {
                let mut page = vec![0u8; 1024];
                page[..8].copy_from_slice(&i.to_le_bytes());
                page
            })
            .collect();
        let pages: Vec<(u64, &[u8])> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (if i % 4 == 0 { 64 } else { 48 }, b.as_slice()))
            .collect();
        let cast = compress_pages(&pages).len();
        let plain = compress_pages_interleaved(&pages).len();
        let raw: usize = pages.iter().map(|(_, b)| b.len() + 16).sum();
        assert!(cast < plain, "cast {cast} vs interleaved {plain}");
        assert!(plain < raw, "plain {plain} vs raw {raw}");
    }
}
