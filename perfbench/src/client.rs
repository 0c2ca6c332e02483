//! Minimal HTTP/1.1 client over a Unix socket, enough for the daemon's
//! JSON API: keep-alive requests, `Content-Length` and chunked replies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A reply: status and raw body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    pub fn json(&self) -> Result<parcom_obs::json::Value, String> {
        parcom_obs::json::parse(self.text())
    }
}

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<UnixStream>,
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Client {
    pub fn connect(socket: &Path) -> io::Result<Self> {
        Ok(Self {
            reader: BufReader::new(UnixStream::connect(socket)?),
        })
    }

    /// Sends one request and reads the whole reply.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: parcom\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        self.read_reply()
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
        let (mut length, mut chunked) = (None, false);
        loop {
            let header = self.line()?;
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                let size =
                    usize::from_str_radix(&self.line()?, 16).map_err(|_| bad("bad chunk size"))?;
                let start = body.len();
                body.resize(start + size, 0);
                self.reader.read_exact(&mut body[start..])?;
                self.line()?;
                if size == 0 {
                    break;
                }
            }
        } else {
            body.resize(length.unwrap_or(0), 0);
            self.reader.read_exact(&mut body)?;
        }
        Ok(Reply { status, body })
    }
}
