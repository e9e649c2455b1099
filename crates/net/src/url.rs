//! URL parsing and serialization.
//!
//! Implements the subset of the WHATWG URL model the measurement pipeline
//! needs: absolute `http`/`https` URLs with host, optional port, path and
//! query. The blocklist engine, party classification, CDN detection, and
//! script-pattern attribution all operate on these components.

use serde::{Deserialize, Serialize};

/// A parsed absolute URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Url {
    /// Scheme, lowercased (`http` or `https`).
    pub scheme: String,
    /// Host, lowercased. Never empty.
    pub host: String,
    /// Explicit port if present.
    pub port: Option<u16>,
    /// Path, always beginning with `/`.
    pub path: String,
    /// Query string without the leading `?`, if present.
    pub query: Option<String>,
}

/// Error from [`Url::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlParseError {
    /// The offending input.
    pub input: String,
    /// What was wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for UrlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid URL {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for UrlParseError {}

impl Url {
    /// Parses an absolute http(s) URL.
    pub fn parse(input: &str) -> Result<Url, UrlParseError> {
        let err = |reason| UrlParseError {
            input: input.to_string(),
            reason,
        };
        let trimmed = input.trim();
        let (scheme, rest) = trimmed
            .split_once("://")
            .ok_or_else(|| err("missing scheme"))?;
        let scheme = scheme.to_ascii_lowercase();
        if scheme != "http" && scheme != "https" {
            return Err(err("unsupported scheme"));
        }
        // Split authority from path/query.
        let (authority, path_query) = match rest.find(['/', '?']) {
            Some(i) if rest.as_bytes()[i] == b'/' => (&rest[..i], &rest[i..]),
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        if authority.is_empty() {
            return Err(err("empty host"));
        }
        // Userinfo is not supported; reject rather than mis-parse.
        if authority.contains('@') {
            return Err(err("userinfo not supported"));
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| err("invalid port"))?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        if host.is_empty() {
            return Err(err("empty host"));
        }
        let host = host.to_ascii_lowercase();
        if !host
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_')
        {
            return Err(err("invalid host character"));
        }
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (path_query, None),
        };
        let path = if path.is_empty() {
            "/".to_string()
        } else if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// Convenience constructor for tests and generators.
    pub fn https(host: &str, path: &str) -> Url {
        Url {
            scheme: "https".into(),
            host: host.to_ascii_lowercase(),
            port: None,
            path: if path.starts_with('/') {
                path.to_string()
            } else {
                format!("/{path}")
            },
            query: None,
        }
    }

    /// The origin string, e.g. `https://example.com`.
    pub fn origin(&self) -> String {
        match self.port {
            Some(p) => format!("{}://{}:{}", self.scheme, self.host, p),
            None => format!("{}://{}", self.scheme, self.host),
        }
    }

    /// Path plus query, as matched by blocklist rules.
    pub fn path_and_query(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// Filename component of the path (`/a/b/app.js` → `app.js`).
    pub fn filename(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or("")
    }
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.origin(), self.path_and_query())
    }
}

impl std::str::FromStr for Url {
    type Err = UrlParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_url() {
        let u = Url::parse("https://Example.COM/a/b.js?x=1").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "example.com");
        assert_eq!(u.path, "/a/b.js");
        assert_eq!(u.query.as_deref(), Some("x=1"));
        assert_eq!(u.port, None);
    }

    #[test]
    fn parses_port() {
        let u = Url::parse("http://localhost:8080/").unwrap();
        assert_eq!(u.port, Some(8080));
        assert_eq!(u.origin(), "http://localhost:8080");
    }

    #[test]
    fn missing_path_becomes_root() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.to_string(), "https://example.com/");
    }

    #[test]
    fn query_without_path() {
        let u = Url::parse("https://example.com?q=1").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.query.as_deref(), Some("q=1"));
    }

    #[test]
    fn rejects_bad_urls() {
        for bad in [
            "",
            "example.com",
            "ftp://example.com/",
            "https:///path",
            "https://user@example.com/",
            "https://exa mple.com/",
            "https://example.com:notaport/",
        ] {
            assert!(Url::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_roundtrips() {
        for s in [
            "https://example.com/",
            "https://example.com/a/b.js?x=1&y=2",
            "http://sub.example.co.uk:8080/path",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_string(), s);
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn filename_extraction() {
        assert_eq!(Url::https("a.com", "/x/y/app.js").filename(), "app.js");
        assert_eq!(Url::https("a.com", "/").filename(), "");
    }
}
