//! A minimal std-only HTTP client for the daemon — used by the
//! `serve_client` CLI, the integration tests and CI to submit campaign
//! specs and scrape metrics.

use crate::server::line_cell_index;
use crate::spec::CampaignSpec;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client handle for one daemon address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
}

/// A fully read HTTP response (`Connection: close` framing).
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Numeric status code.
    pub status: u16,
    /// Raw header lines (name-case preserved).
    pub headers: Vec<String>,
    /// Entire body.
    pub body: String,
}

impl HttpResponse {
    /// A header's trimmed value, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }
}

/// Outcome of a campaign submission.
#[derive(Clone, Debug)]
pub enum CampaignOutcome {
    /// The daemon streamed every cell; lines re-ordered by cell index
    /// (byte-identical to a local run of the same spec).
    Completed(Vec<String>),
    /// The daemon turned the request away (429/400/503 — the status and
    /// body say which).
    Rejected(HttpResponse),
}

impl Client {
    /// A client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let (head, payload) = raw
            .split_once("\r\n\r\n")
            .ok_or_else(|| std::io::Error::other("truncated HTTP response"))?;
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|status_line| status_line.split_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad HTTP status line"))?;
        Ok(HttpResponse {
            status,
            headers: lines.map(str::to_owned).collect(),
            body: payload.to_owned(),
        })
    }

    /// `GET /healthz` — `Ok(true)` when the daemon answers 200.
    pub fn healthz(&self) -> std::io::Result<bool> {
        Ok(self.request("GET", "/healthz", None)?.status == 200)
    }

    /// Polls `/healthz` until the daemon answers (or `timeout` passes).
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.healthz().unwrap_or(false) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        false
    }

    /// `GET /metrics` — the rendered counter text.
    ///
    /// # Errors
    ///
    /// I/O failure, or a non-200 status.
    pub fn metrics(&self) -> std::io::Result<String> {
        let response = self.request("GET", "/metrics", None)?;
        if response.status != 200 {
            return Err(std::io::Error::other(format!(
                "/metrics returned {}",
                response.status
            )));
        }
        Ok(response.body)
    }

    /// Submits a campaign spec (raw JSON) and collects the streamed
    /// result lines, restored to grid order.
    ///
    /// # Errors
    ///
    /// Transport-level I/O failure, or an [`InvalidData`] error when a
    /// `200` stream does not carry each cell index of the spec exactly
    /// once (the message names the missing ones). HTTP-level rejection
    /// is a [`CampaignOutcome::Rejected`], not an `Err`.
    ///
    /// [`InvalidData`]: std::io::ErrorKind::InvalidData
    pub fn campaign(&self, spec_json: &str) -> std::io::Result<CampaignOutcome> {
        let response = self.request("POST", "/campaign", Some(spec_json))?;
        if response.status != 200 {
            return Ok(CampaignOutcome::Rejected(response));
        }
        let invalid = |message: String| std::io::Error::new(ErrorKind::InvalidData, message);
        let cells = CampaignSpec::parse(spec_json)
            .map_err(invalid)?
            .cells()
            .len();
        let mut seen = vec![0usize; cells];
        let mut lines = Vec::with_capacity(cells);
        for line in response.body.lines().filter(|l| !l.is_empty()) {
            let index = line_cell_index(line)
                .filter(|&i| i < cells as u64)
                .ok_or_else(|| {
                    invalid(format!("line without a cell index below {cells}: {line}"))
                })?;
            seen[index as usize] += 1;
            lines.push((index, line.to_owned()));
        }
        if seen.iter().any(|&n| n != 1) {
            let with = |count: fn(usize) -> bool| -> Vec<usize> {
                (0..cells).filter(|&i| count(seen[i])).collect()
            };
            return Err(invalid(format!(
                "campaign stream of {} lines for {cells} cells: missing cells {:?}, repeated cells {:?}",
                lines.len(),
                with(|n| n == 0),
                with(|n| n > 1),
            )));
        }
        lines.sort_by_key(|&(index, _)| index);
        Ok(CampaignOutcome::Completed(
            lines.into_iter().map(|(_, line)| line).collect(),
        ))
    }
}
