//! A minimal keep-alive HTTP/1.1 client for the load loops: one blocking
//! connection, requests framed with `content-length`, responses read into a
//! reused buffer.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    line: String,
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            addr,
            stream,
            reader,
            request: Vec::new(),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Replace a connection a transport error left in an unknown state.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Self::connect(self.addr)?;
        Ok(())
    }

    /// Send one request and read its response into `self.body`; returns
    /// the status code.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.stream.write_all(&self.request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<u16> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}
