//! HTTP/1.1 request/response codec.
//!
//! Plaintext HTTP is where the paper found its PII leaks (§6.2): MAC
//! addresses and device metadata sent to support-party clouds, firmware
//! downloads, and unauthenticated device-action queries. The `Host` header
//! is also the second fallback (after DNS) for labeling destination IPs
//! with domains (§4.1).

use crate::error::ProtoError;
use crate::Result;

/// Standard HTTP port.
pub const PORT: u16 = 80;

/// Serializes a message: the start line (given as parts), the headers,
/// a blank line and the body, into one buffer sized up front.
fn encode_message(start_line: &[&str], headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let start: usize = start_line.iter().map(|p| p.len()).sum();
    let fields: usize = headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    let mut out = Vec::with_capacity(start + fields + 4 + body.len());
    for part in start_line {
        out.extend_from_slice(part.as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    for (name, value) in headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/v1/checkin?mac=…`.
    pub path: String,
    /// Header name/value pairs in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a request with a `Host` header.
    pub fn new(method: &str, host: &str, path: &str) -> Self {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: vec![
                ("Host".to_string(), host.to_string()),
                ("Connection".to_string(), "keep-alive".to_string()),
            ],
            body: Vec::new(),
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body and a matching `Content-Length` header.
    pub fn body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self.headers
            .push(("Content-Length".to_string(), self.body.len().to_string()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn get_header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The `Host` header value, if present.
    pub fn host(&self) -> Option<&str> {
        self.get_header("host")
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let start = [self.method.as_str(), " ", &self.path, " HTTP/1.1"];
        encode_message(&start, &self.headers, &self.body)
    }

    /// Parses a request from the front of a byte stream.
    pub fn parse(data: &[u8]) -> Result<Request> {
        let (start_line, headers, body) = split_message(data)?;
        let mut parts = start_line.splitn(3, ' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
            .ok_or_else(|| ProtoError::malformed("http", "method"))?;
        let path = parts
            .next()
            .ok_or_else(|| ProtoError::malformed("http", "path"))?;
        let version = parts
            .next()
            .ok_or_else(|| ProtoError::malformed("http", "version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(ProtoError::malformed("http", format!("version {version:?}")));
        }
        Ok(Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body,
        })
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with a body and `Content-Length`.
    pub fn new(status: u16, reason: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        Response {
            status,
            reason: reason.to_string(),
            headers: vec![("Content-Length".to_string(), body.len().to_string())],
            body,
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn get_header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let status = self.status.to_string();
        let start = ["HTTP/1.1 ", &status, " ", self.reason.as_str()];
        encode_message(&start, &self.headers, &self.body)
    }

    /// Parses a response from the front of a byte stream.
    pub fn parse(data: &[u8]) -> Result<Response> {
        let (start_line, headers, body) = split_message(data)?;
        let rest = start_line
            .strip_prefix("HTTP/1.")
            .ok_or_else(|| ProtoError::malformed("http", "status line"))?;
        let mut parts = rest.splitn(3, ' ');
        let _minor = parts.next();
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ProtoError::malformed("http", "status code"))?;
        let reason = parts.next().unwrap_or("").to_string();
        Ok(Response {
            status,
            reason,
            headers,
            body,
        })
    }
}

/// Splits raw bytes into (start line, headers, body). The body is whatever
/// follows the blank line, truncated to `Content-Length` when present (flow
/// payload prefixes may be capped mid-body, in which case the remainder is
/// kept as-is).
#[allow(clippy::type_complexity)]
fn split_message(data: &[u8]) -> Result<(String, Vec<(String, String)>, Vec<u8>)> {
    let head_end = find_subsequence(data, b"\r\n\r\n")
        .ok_or_else(|| ProtoError::truncated("http", "header terminator"))?;
    let head = std::str::from_utf8(&data[..head_end])
        .map_err(|_| ProtoError::malformed("http", "non-utf8 header"))?;
    let mut lines = head.split("\r\n");
    let start_line = lines
        .next()
        .ok_or_else(|| ProtoError::malformed("http", "empty message"))?
        .to_string();
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ProtoError::malformed("http", format!("header line {line:?}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let mut body = data[head_end + 4..].to_vec();
    if let Some(cl) = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        if body.len() > cl {
            body.truncate(cl);
        }
    }
    Ok((start_line, headers, body))
}

/// Finds the first occurrence of `needle` in `haystack`.
pub fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::new("POST", "api.samsungcloud.com", "/fridge/checkin")
            .header("User-Agent", "SmartFridge/2.1")
            .body(&b"mac=a4cf12000102&model=RF28"[..]);
        let bytes = req.encode();
        let parsed = Request::parse(&bytes).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.host(), Some("api.samsungcloud.com"));
        assert_eq!(parsed.get_header("user-agent"), Some("SmartFridge/2.1"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::new(200, "OK", &b"{\"ok\":true}"[..])
            .header("Content-Type", "application/json");
        let parsed = Response::parse(&resp.encode()).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.status, 200);
    }

    #[test]
    fn content_length_truncates_pipelined_data() {
        let mut bytes = Response::new(200, "OK", &b"abc"[..]).encode();
        bytes.extend_from_slice(b"EXTRA PIPELINED JUNK");
        let parsed = Response::parse(&bytes).unwrap();
        assert_eq!(parsed.body, b"abc");
    }

    #[test]
    fn missing_terminator_is_truncated_error() {
        assert!(matches!(
            Request::parse(b"GET / HTTP/1.1\r\nHost: x"),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn non_http_rejected() {
        assert!(Request::parse(b"\x16\x03\x03\x00\x10aaaaaaaaaaaaaaaa\r\n\r\n").is_err());
        assert!(Request::parse(b"get / HTTP/1.1\r\n\r\n").is_err(), "lowercase method");
        assert!(Response::parse(b"ICY 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let req = Request::new("GET", "example.com", "/");
        assert_eq!(req.get_header("HOST"), Some("example.com"));
        assert_eq!(req.get_header("HoSt"), Some("example.com"));
        assert_eq!(req.get_header("nope"), None);
    }

    #[test]
    fn find_subsequence_cases() {
        assert_eq!(find_subsequence(b"abcdef", b"cd"), Some(2));
        assert_eq!(find_subsequence(b"abcdef", b"xy"), None);
        assert_eq!(find_subsequence(b"ab", b"abc"), None);
        assert_eq!(find_subsequence(b"", b""), None);
    }
}
