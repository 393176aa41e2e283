//! A minimal HTTP/1.1 keep-alive client for the served workload: one
//! connection, requests written whole, responses read by
//! `Content-Length` or chunked framing. It reconnects only when the
//! server announced `Connection: close`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body, de-chunked.
    pub body: String,
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

/// Longest a response may take before the client gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Send one request and read its response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: Option<&str>,
    ) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(id) = request_id {
            head.push_str(&format!("X-Request-Id: {id}\r\n"));
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        let result = conn
            .get_mut()
            .write_all(&wire)
            .and_then(|()| read_response(conn));
        match result {
            Ok((response, close)) => {
                if close {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn read_line(conn: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Read one response; the flag says whether the server will close.
fn read_response(conn: &mut BufReader<TcpStream>) -> std::io::Result<(Response, bool)> {
    let status_line = read_line(conn)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length: Option<usize> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        let line = read_line(conn)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("bad header line"));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = Some(value.parse().map_err(|_| bad("bad length"))?),
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(conn)?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                // Trailer section: read to the blank line.
                while !read_line(conn)?.is_empty() {}
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            conn.read_exact(&mut body[start..])?;
            if !read_line(conn)?.is_empty() {
                return Err(bad("chunk not followed by CRLF"));
            }
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        conn.read_exact(&mut body)?;
    } else {
        conn.read_to_end(&mut body)?;
        close = true;
    }
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok((Response { status, body }, close))
}
