//! The benchmark's own memcached text-protocol client: one blocking
//! `TcpStream`, requests rendered into a reusable buffer, replies framed
//! in place and compared byte for byte with what a client-side model of
//! the cache says they must be.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Bytes in every stored value.
pub const VALUE_LEN: usize = 40;
/// Bytes in every key: `k` and eight hex digits of the key id.
pub const KEY_LEN: usize = 9;

fn hex8(out: &mut [u8], x: u32) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for (i, b) in out[..8].iter_mut().enumerate() {
        *b = DIGITS[((x >> (28 - 4 * i)) & 0xf) as usize];
    }
}

pub fn key(id: u32) -> [u8; KEY_LEN] {
    let mut k = [b'k'; KEY_LEN];
    hex8(&mut k[1..], id);
    k
}

/// The value the client stores as version `version` of key `id`; a reply
/// carrying any other bytes is wrong.
pub fn value(id: u32, version: u32) -> [u8; VALUE_LEN] {
    let mut v = [b'v'; VALUE_LEN];
    hex8(&mut v[0..8], id);
    v[8] = b'.';
    hex8(&mut v[9..17], version);
    v[17] = b'.';
    v
}

pub fn put_get(buf: &mut Vec<u8>, id: u32) {
    buf.extend_from_slice(b"get ");
    buf.extend_from_slice(&key(id));
    buf.extend_from_slice(b"\r\n");
}

pub fn put_set(buf: &mut Vec<u8>, id: u32, version: u32) {
    buf.extend_from_slice(b"set ");
    buf.extend_from_slice(&key(id));
    buf.extend_from_slice(b" 0 0 40\r\n");
    buf.extend_from_slice(&value(id, version));
    buf.extend_from_slice(b"\r\n");
}

pub fn put_delete(buf: &mut Vec<u8>, id: u32) {
    buf.extend_from_slice(b"delete ");
    buf.extend_from_slice(&key(id));
    buf.extend_from_slice(b"\r\n");
}

/// The exact reply to a GET that finds version `version` of key `id`.
pub fn hit_reply(id: u32, version: u32) -> [u8; 29 + VALUE_LEN] {
    let mut r = [0u8; 29 + VALUE_LEN];
    r[..6].copy_from_slice(b"VALUE ");
    r[6..15].copy_from_slice(&key(id));
    r[15..22].copy_from_slice(b" 0 40\r\n");
    r[22..22 + VALUE_LEN].copy_from_slice(&value(id, version));
    r[22 + VALUE_LEN..].copy_from_slice(b"\r\nEND\r\n");
    r
}

pub const MISS_REPLY: &[u8] = b"END\r\n";

/// How a reply is framed.
#[derive(Clone, Copy)]
pub enum Shape {
    /// `END`, or a `VALUE` block closed by `END`.
    Get,
    /// One line (`STORED`, `DELETED`, `NOT_FOUND`, `RESET`, ...).
    Line,
    /// A `STATS JSON` object line followed by `END`.
    JsonThenEnd,
}

/// How long a reply may take before the connection is declared dead.
const REPLY_DEADLINE: Duration = Duration::from_secs(30);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// `read` and `write` calls that moved bytes.
    pub reads: u64,
    pub writes: u64,
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Length of the complete reply at the front of `buf`, `Ok(None)` if more
/// bytes are needed, or an error if the bytes cannot be framed at all.
fn frame(buf: &[u8], shape: Shape) -> io::Result<Option<usize>> {
    let Some(line) = find_crlf(buf) else {
        return Ok(None);
    };
    match shape {
        Shape::Line => Ok(Some(line + 2)),
        Shape::JsonThenEnd => Ok(find_crlf(&buf[line + 2..]).map(|end| line + 2 + end + 2)),
        Shape::Get if buf.starts_with(b"END\r\n") => Ok(Some(5)),
        Shape::Get if buf.starts_with(b"VALUE ") => {
            let header = std::str::from_utf8(&buf[..line]).map_err(|_| bad(buf))?;
            let len: usize = header
                .rsplit(' ')
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| bad(buf))?;
            let total = line + 2 + len + 2 + 5;
            Ok((buf.len() >= total).then_some(total))
        }
        Shape::Get => Err(bad(buf)),
    }
}

fn bad(buf: &[u8]) -> io::Error {
    let shown = String::from_utf8_lossy(&buf[..buf.len().min(80)]).into_owned();
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unframeable reply {shown:?}"),
    )
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_DEADLINE))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
            reads: 0,
            writes: 0,
        })
    }

    pub fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.writes += 1;
                    bytes = &bytes[n..];
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next complete reply, borrowed until the next call.
    pub fn reply(&mut self, shape: Shape) -> io::Result<&[u8]> {
        loop {
            if let Some(len) = frame(&self.buf[self.start..self.end], shape)? {
                let at = self.start;
                self.start += len;
                return Ok(&self.buf[at..at + len]);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                let grown = self.buf.len() * 2;
                self.buf.resize(grown, 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.reads += 1;
                    self.end += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one control command and returns its whole reply as text.
    pub fn control(&mut self, command: &str, shape: Shape) -> io::Result<String> {
        self.send(command.as_bytes())?;
        let reply = self.reply(shape)?;
        Ok(String::from_utf8_lossy(reply).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_frame_exactly() {
        let hit = hit_reply(0xab, 3);
        assert_eq!(frame(&hit, Shape::Get).unwrap(), Some(hit.len()));
        assert_eq!(frame(&hit[..hit.len() - 1], Shape::Get).unwrap(), None);
        assert_eq!(frame(b"END\r\nEND\r\n", Shape::Get).unwrap(), Some(5));
        assert_eq!(frame(b"STORED\r\nX", Shape::Line).unwrap(), Some(8));
        assert_eq!(
            frame(b"{\"a\":1}\r\nEND\r\n", Shape::JsonThenEnd).unwrap(),
            Some(14)
        );
        assert!(frame(b"ERROR\r\n", Shape::Get).is_err());
    }

    #[test]
    fn requests_and_values_render_as_the_protocol_expects() {
        let mut buf = Vec::new();
        put_set(&mut buf, 0x1f, 2);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "set k0000001f 0 0 40\r\n0000001f.00000002.vvvvvvvvvvvvvvvvvvvvvv\r\n"
        );
        let hit = hit_reply(0x1f, 2);
        assert!(hit.starts_with(b"VALUE k0000001f 0 40\r\n0000001f.00000002."));
        assert!(hit.ends_with(b"v\r\nEND\r\n"));
    }
}
