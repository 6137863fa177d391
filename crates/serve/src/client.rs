//! A minimal blocking client for the newline-delimited JSON protocol,
//! shared by `flexer-cli` and the integration tests.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One open client connection. Requests may be pipelined: the server
/// answers strictly in order, one line per request.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates resolution and connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        Self::from_stream(stream)
    }

    /// Wraps an already connected stream and disables Nagle's
    /// algorithm on it: a request is one small write followed by a
    /// wait for the reply, the pattern that otherwise stalls on the
    /// peer's delayed ACK.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nodelay` and `try_clone` failures.
    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads the matching response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an empty read (server closed the
    /// connection) is [`io::ErrorKind::UnexpectedEof`].
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Sends one request line without waiting. The line and its `\n`
    /// go out in one write.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        self.writer.flush()
    }

    /// Reads the next response line.
    ///
    /// # Errors
    ///
    /// Propagates read failures; EOF is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Applies a read timeout to subsequent [`Client::recv`] calls.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

/// One-shot convenience: connect, send `line`, return the response.
///
/// # Errors
///
/// As [`Client::connect`] and [`Client::roundtrip`].
pub fn roundtrip(addr: impl ToSocketAddrs, line: &str) -> io::Result<String> {
    Client::connect(addr)?.roundtrip(line)
}
