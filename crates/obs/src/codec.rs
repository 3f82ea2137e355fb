//! The one little-endian body codec: every body of bytes that crossed a
//! socket is read through a [`BodyCursor`] and written through a
//! [`BodyWriter`].  Reading fails three ways, each a [`BodyError`]: a take
//! past the end, a declared count over its cap (before anything is
//! allocated), and bytes left over or a field the decoder refuses.  No take
//! panics, and no declared count sizes an allocation larger than the bytes
//! that follow it.  Each caller maps the error to its own policy.

/// Why a body did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyError {
    /// The body ends mid-field.
    Truncated,
    /// A declared count over its cap.
    Oversize(usize),
    /// Bytes left over, or a field its decoder refuses.
    Malformed,
}

/// The reading side of every body: little-endian takes off the front of a
/// borrowed buffer.
#[derive(Debug)]
pub struct BodyCursor<'a> {
    buf: &'a [u8],
    at: usize,
}

macro_rules! takes {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Take one little-endian `", stringify!($ty), "`.")]
        #[inline]
        pub fn $name(&mut self) -> Result<$ty, BodyError> {
            const N: usize = std::mem::size_of::<$ty>();
            let mut b = [0; N];
            b.copy_from_slice(self.bytes(N)?);
            Ok(<$ty>::from_le_bytes(b))
        }
    )*};
}

impl<'a> BodyCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BodyCursor { buf, at: 0 }
    }

    /// Take the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BodyError> {
        let rest = &self.buf[self.at..];
        if n > rest.len() {
            return Err(BodyError::Truncated);
        }
        self.at += n;
        Ok(&rest[..n])
    }

    takes!(u8: u8, u16: u16, u32: u32, u64: u64, f32: f32, f64: f64);

    /// Fill `out` with the next `out.len()` `f64`s in bulk: one bounds check,
    /// then one pass (a copy on little-endian targets); untouched on error.
    #[inline]
    pub fn f64s_into(&mut self, out: &mut [f64]) -> Result<(), BodyError> {
        let bytes = self.bytes(std::mem::size_of_val(out))?;
        for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        }
        Ok(())
    }

    /// Take `count` records of `width` bytes each, as a cursor over exactly
    /// those bytes: [`BodyError::Oversize`] over `cap`, checked first, and
    /// [`BodyError::Truncated`] unless the bytes are all there.
    #[inline]
    pub fn counted(&mut self, count: usize, cap: usize, width: usize) -> Result<Self, BodyError> {
        if count > cap {
            return Err(BodyError::Oversize(count));
        }
        self.bytes(count.saturating_mul(width)).map(BodyCursor::new)
    }

    /// [`BodyCursor::counted`], each record decoded by `take`.
    pub fn records<T>(
        &mut self,
        count: usize,
        cap: usize,
        width: usize,
        mut take: impl FnMut(&mut Self) -> Result<T, BodyError>,
    ) -> Result<Vec<T>, BodyError> {
        let mut c = self.counted(count, cap, width)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(take(&mut c)?);
        }
        Ok(out)
    }

    /// Take everything left.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
    }

    /// End of the body: any byte not taken is [`BodyError::Malformed`].
    pub fn finish(self) -> Result<(), BodyError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(BodyError::Malformed)
        }
    }
}

/// Decode the whole of `body` with `read`: its takes fail
/// [`BodyError::Truncated`], and bytes it leaves fail
/// [`BodyError::Malformed`], each converted into the caller's error.
pub fn read_body<'a, T, E: From<BodyError>>(
    body: &'a [u8],
    read: impl FnOnce(&mut BodyCursor<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut c = BodyCursor::new(body);
    let value = read(&mut c)?;
    c.finish()?;
    Ok(value)
}

/// A body of nothing but `f64`s (an LCO-set parcel, a gathered part):
/// [`BodyError::Malformed`] unless its length is a whole number of values.
pub fn decode_f64s(body: &[u8]) -> Result<Vec<f64>, BodyError> {
    let mut values = vec![0.0; body.len() / 8];
    read_body(body, |c| c.f64s_into(&mut values))?;
    Ok(values)
}

/// The writing side of every body, the mirror of [`BodyCursor`]:
/// little-endian puts appended to a buffer, chained.
pub struct BodyWriter<'a>(pub &'a mut Vec<u8>);

macro_rules! puts {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Append one little-endian `", stringify!($ty), "`.")]
        #[inline]
        pub fn $name(&mut self, v: $ty) -> &mut Self {
            self.0.extend_from_slice(&v.to_le_bytes());
            self
        }
    )*};
}

impl BodyWriter<'_> {
    puts!(u8: u8, u16: u16, u32: u32, u64: u64, f32: f32, f64: f64);

    /// Append `f64`s in bulk (see [`encode_f64s`]).
    #[inline]
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        encode_f64s(values, self.0);
        self
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.extend_from_slice(b);
        self
    }
}

/// Append `values` to `out`: one growth, then one pass the compiler turns
/// into a copy on little-endian targets.
pub fn encode_f64s(values: &[f64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + std::mem::size_of_val(values), 0);
    for (c, v) in out[start..].chunks_exact_mut(8).zip(values) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

/// A fresh body of at most `capacity` bytes, written by `fill`.
pub fn write_body(capacity: usize, fill: impl FnOnce(&mut BodyWriter)) -> Vec<u8> {
    let mut body = Vec::with_capacity(capacity);
    fill(&mut BodyWriter(&mut body));
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_and_puts_mirror_each_other() {
        let body = write_body(64, |w| {
            w.u8(1).u16(2).u32(3).u64(4).f32(5.5).f64(-6.25);
            w.f64s(&[7.0, 8.0]).bytes(b"ab");
        });
        assert_eq!(body.len(), 1 + 2 + 4 + 8 + 4 + 8 + 16 + 2);
        let got = read_body(&body, |c| {
            let head = (c.u8()?, c.u16()?, c.u32()?, c.u64()?, c.f32()?, c.f64()?);
            let mut pair = [0.0; 2];
            c.f64s_into(&mut pair)?;
            Ok::<_, BodyError>((head, pair, c.bytes(2)?))
        });
        assert_eq!(got, Ok(((1, 2, 3, 4, 5.5, -6.25), [7.0, 8.0], &b"ab"[..])));
    }

    #[test]
    fn every_failure_is_an_error_and_bulk_reads_leave_out_alone() {
        let mut buf = Vec::new();
        encode_f64s(&[1.5, -2.0], &mut buf);
        let mut out = [9.0; 2];
        assert_eq!(
            BodyCursor::new(&buf[..15]).f64s_into(&mut out),
            Err(BodyError::Truncated)
        );
        assert_eq!(out, [9.0; 2]);
        assert_eq!(decode_f64s(&buf), Ok(vec![1.5, -2.0]));
        assert_eq!(decode_f64s(&buf[..15]), Err(BodyError::Malformed));
        assert_eq!(decode_f64s(&[]), Ok(vec![]));
        assert_eq!(read_body(&[0; 5], |c| c.u32()), Err(BodyError::Malformed));
        let hostile = read_body(&[0; 8], |c| c.records(usize::MAX, 1 << 20, 4, |r| r.u32()));
        assert_eq!(hostile, Err(BodyError::Oversize(usize::MAX)));
        let short = read_body(&[0; 8], |c| c.records(3, 1 << 20, 4, |r| r.u32()));
        assert_eq!(short, Err(BodyError::Truncated));
    }
}
