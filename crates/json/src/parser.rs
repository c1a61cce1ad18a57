//! The streaming JSON tokenizer and its event mapping.
//!
//! [`JsonParser`] mirrors `fx_xml::StreamingParser`'s shape: feed
//! string chunks at arbitrary boundaries, interned [`SymEvent`]s come
//! out the moment a token completes, scratch buffers keep the steady
//! state allocation-free, and `reset` makes one parser serve many
//! documents. See the crate docs for the JSON → element mapping.

use fx_xml::scan;
use fx_xml::{
    EventBatch, EventSource, ParseError, Span, Sym, SymCache, SymEvent, Symbols, Utf8Carry,
    BATCH_BYTES, BATCH_EVENTS,
};
use std::io::Read;
use std::sync::Arc;

/// A container the parser is inside of, on the explicit nesting stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Inside `{ … }`; `close` is the element its `}` closes.
    Object { close: Sym },
    /// Inside `[ … ]`; items open `item`-named elements. `close` is
    /// `Some` for wrapped arrays (item position / root) and `None` for
    /// spliced member-value arrays, whose `]` emits nothing.
    Array { item: Sym, close: Option<Sym> },
}

/// What the grammar allows next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Value,
    MemberName,
    Colon,
    CommaOrEndObject,
    CommaOrEndArray,
    Done,
}

/// A resumable push parser mapping JSON onto interned SAX events. Feed
/// it string chunks; events come out with cumulative byte [`Span`]s
/// (a scalar's element start/text/end all carry the scalar token's
/// span). Memory is bounded by the largest single token and the
/// nesting depth, never by document size.
#[derive(Debug, Clone)]
pub struct JsonParser {
    buf: String,
    /// Consumed prefix of `buf` (compacted once per feed).
    pos: usize,
    symbols: Arc<Symbols>,
    /// False in [`JsonParser::lookup_only`] mode: keys resolve
    /// read-only and unknown ones collapse to [`Sym::UNKNOWN`].
    intern_names: bool,
    name_cache: SymCache,
    stack: Vec<Frame>,
    expect: Expect,
    /// The element name (and array-wrap flag) the next value opens;
    /// `None` only before the root value, which resolves `json`.
    pending: Option<(Sym, bool)>,
    /// Bytes of the pending string or number token (at `pos`) already
    /// scanned by earlier feeds: the scan resumes here, so a token
    /// spanning many feeds is scanned once. Zero between tokens.
    scanned: usize,
    started: bool,
    finished: bool,
    consumed: usize,
    /// Reused escape-decoded string buffer; `Text` events borrow it.
    text_scratch: String,
    /// Incomplete UTF-8 scalar split across byte-chunk feeds
    /// ([`JsonParser::feed_interned_bytes`]).
    utf8_carry: Utf8Carry,
    /// Reused read buffer for [`JsonParser::drive_reader`].
    io_chunk: Vec<u8>,
    /// Reused event batch for [`JsonParser::drive_batched`].
    ev_batch: EventBatch,
}

impl Default for JsonParser {
    fn default() -> Self {
        JsonParser::new()
    }
}

impl JsonParser {
    /// A parser with a fresh private [`Symbols`] table.
    pub fn new() -> JsonParser {
        JsonParser::with_symbols(Arc::new(Symbols::new()))
    }

    /// A parser interning keys into `symbols` — the table downstream
    /// compiled queries resolve their node tests in.
    pub fn with_symbols(symbols: Arc<Symbols>) -> JsonParser {
        JsonParser {
            buf: String::new(),
            pos: 0,
            symbols,
            intern_names: true,
            name_cache: SymCache::new(),
            stack: Vec::new(),
            expect: Expect::Value,
            pending: None,
            scanned: 0,
            started: false,
            finished: false,
            consumed: 0,
            text_scratch: String::new(),
            utf8_carry: Utf8Carry::new(),
            io_chunk: Vec::new(),
            ev_batch: EventBatch::new(),
        }
    }

    /// Switches to *lookup-only* name resolution: keys resolve against
    /// the shared table read-only, unknown ones collapse to
    /// [`Sym::UNKNOWN`], and the table stays bounded by the compiled
    /// query vocabulary on streams with unbounded key cardinality —
    /// exactly like `fx_xml::StreamingParser::lookup_only`.
    pub fn lookup_only(mut self) -> JsonParser {
        self.intern_names = false;
        self
    }

    /// The symbol table this parser resolves keys against.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Resets per-document state, keeping the table handle, the name
    /// memo, and every scratch buffer's capacity warm.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.stack.clear();
        self.expect = Expect::Value;
        self.pending = None;
        self.scanned = 0;
        self.started = false;
        self.finished = false;
        self.consumed = 0;
        self.utf8_carry.clear();
    }

    /// Drops memoized name verdicts (see
    /// `fx_xml::StreamingParser::invalidate_name_memo`).
    pub fn invalidate_name_memo(&mut self) {
        self.name_cache.clear();
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: 0,
            column: self.consumed + 1,
        }
    }

    fn resolve(cache: &mut SymCache, symbols: &Symbols, intern: bool, name: &str) -> Sym {
        cache.lookup_or_intern(symbols, name, intern)
    }

    /// Feeds a chunk, emitting every event whose token is complete, in
    /// interned zero-copy form.
    pub fn feed_interned<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        chunk: &str,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.compact();
        self.buf.push_str(chunk);
        self.drain(false, emit)
    }

    /// [`JsonParser::feed_interned`] on raw bytes: validates UTF-8 once
    /// per chunk and carries a scalar split across chunk boundaries, so
    /// any read boundary — including mid-multibyte-character — is safe.
    pub fn feed_interned_bytes<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        chunk: &[u8],
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.compact();
        let JsonParser {
            buf, utf8_carry, ..
        } = self;
        utf8_carry.feed(chunk, &mut |text| {
            buf.push_str(text);
            Ok(())
        })?;
        self.drain(false, emit)
    }

    /// Signals end of input: completes a trailing number token, then
    /// verifies the document held exactly one root value and emits
    /// `EndDocument`.
    pub fn finish_interned<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        if self.finished {
            return Err(self.err("finish called twice"));
        }
        self.utf8_carry.finish()?;
        self.drain(true, emit)?;
        if !self.started {
            return Err(self.err("empty document"));
        }
        if self.expect != Expect::Done {
            return Err(self.err("unexpected end of JSON input"));
        }
        self.finished = true;
        emit(SymEvent::EndDocument, Span::point(self.consumed as u64));
        Ok(())
    }

    /// Streams a whole document from `reader` through the interned
    /// surface: fixed-size chunks, split UTF-8 scalars carried across
    /// boundaries.
    pub fn drive_reader<R: Read, F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        mut reader: R,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let mut chunk = std::mem::take(&mut self.io_chunk);
        let result = fx_xml::drive_byte_chunks(&mut reader, &mut chunk, &mut |bytes| {
            self.feed_interned_bytes(bytes, emit)
        })
        .and_then(|()| self.finish_interned(emit));
        self.io_chunk = chunk;
        result
    }

    /// Streams a whole document from `reader` as recycled
    /// [`EventBatch`]es — the JSON frontend's native
    /// [`EventSource::drive_batched`]: batches cut on
    /// [`BATCH_EVENTS`] events or [`BATCH_BYTES`] payload bytes, the
    /// batch borrow valid only for the `consume` call.
    pub fn drive_batched<R: Read>(
        &mut self,
        mut reader: R,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        let mut batch = std::mem::take(&mut self.ev_batch);
        batch.clear();
        let mut chunk = std::mem::take(&mut self.io_chunk);
        let result = fx_xml::drive_byte_chunks(&mut reader, &mut chunk, &mut |bytes| {
            self.feed_interned_bytes(bytes, &mut |ev, span| batch.push(&ev, span))?;
            if batch.len() >= BATCH_EVENTS || batch.payload_bytes() >= BATCH_BYTES {
                consume(&batch);
                batch.clear();
            }
            Ok(())
        })
        .and_then(|()| self.finish_interned(&mut |ev, span| batch.push(&ev, span)));
        if result.is_ok() && !batch.is_empty() {
            consume(&batch);
        }
        batch.clear();
        self.io_chunk = chunk;
        self.ev_batch = batch;
        result
    }

    fn pending_input(&self) -> &str {
        &self.buf[self.pos..]
    }

    fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.pos);
        }
        self.pos = 0;
    }

    /// Consumes `n` bytes and returns their cumulative span.
    fn consume(&mut self, n: usize) -> Span {
        self.pos += n;
        self.scanned = 0;
        self.consumed += n;
        Span::new((self.consumed - n) as u64, self.consumed as u64)
    }

    fn skip_ws(&mut self) {
        let b = self.pending_input();
        let skip = b.len()
            - b.trim_start_matches(|c: char| c.is_ascii_whitespace() || c == '\u{feff}')
                .len();
        if skip > 0 {
            self.consume(skip);
        }
    }

    /// The name/wrap slot the next value fills (resolving the `json`
    /// root on first use).
    fn take_pending(&mut self) -> (Sym, bool) {
        match self.pending.take() {
            Some(p) => p,
            None => (
                Self::resolve(
                    &mut self.name_cache,
                    &self.symbols,
                    self.intern_names,
                    "json",
                ),
                true,
            ),
        }
    }

    fn ensure_started<F: FnMut(SymEvent<'_>, Span) + ?Sized>(&mut self, emit: &mut F) {
        if !self.started {
            self.started = true;
            emit(SymEvent::StartDocument, Span::point(0));
        }
    }

    /// Sets `expect` for the position just after a completed value.
    fn after_value(&mut self) {
        self.expect = match self.stack.last() {
            None => Expect::Done,
            Some(Frame::Object { .. }) => Expect::CommaOrEndObject,
            Some(Frame::Array { .. }) => Expect::CommaOrEndArray,
        };
    }

    /// Pops the innermost container at its `}` / `]`.
    fn close_container<F: FnMut(SymEvent<'_>, Span) + ?Sized>(&mut self, span: Span, emit: &mut F) {
        let frame = self.stack.pop().expect("close with open container");
        let close = match frame {
            Frame::Object { close } => Some(close),
            Frame::Array { close, .. } => close,
        };
        if let Some(name) = close {
            emit(SymEvent::EndElement { name }, span);
        }
        self.after_value();
    }

    fn drain<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        at_eof: bool,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            let b = self.pending_input();
            let Some(c) = b.bytes().next() else {
                return Ok(());
            };
            match self.expect {
                Expect::Done => return Err(self.err("trailing content after JSON value")),
                Expect::Value => match c {
                    b'{' => {
                        let (name, _) = self.take_pending();
                        let span = self.consume(1);
                        self.ensure_started(emit);
                        emit(
                            SymEvent::StartElement {
                                name,
                                attributes: &[],
                            },
                            span,
                        );
                        self.stack.push(Frame::Object { close: name });
                        self.expect = Expect::MemberName;
                    }
                    b'[' => {
                        let (name, wrap) = self.take_pending();
                        let span = self.consume(1);
                        self.ensure_started(emit);
                        let item = if wrap {
                            emit(
                                SymEvent::StartElement {
                                    name,
                                    attributes: &[],
                                },
                                span,
                            );
                            Self::resolve(
                                &mut self.name_cache,
                                &self.symbols,
                                self.intern_names,
                                "item",
                            )
                        } else {
                            name
                        };
                        self.stack.push(Frame::Array {
                            item,
                            close: wrap.then_some(name),
                        });
                        self.pending = Some((item, true));
                        self.expect = Expect::Value;
                    }
                    b']' if matches!(self.stack.last(), Some(Frame::Array { .. })) => {
                        // Empty array (or lenient trailing comma).
                        self.pending = None;
                        let span = self.consume(1);
                        self.close_container(span, emit);
                    }
                    b'"' => {
                        let len = match string_token_len(b, self.scanned) {
                            Ok(len) => len,
                            Err(scanned) => {
                                if at_eof {
                                    return Err(self.err("unterminated string"));
                                }
                                self.scanned = scanned;
                                return Ok(());
                            }
                        };
                        self.text_scratch.clear();
                        decode_json_string(
                            &self.buf[self.pos + 1..self.pos + len - 1],
                            &mut self.text_scratch,
                        )
                        .map_err(|m| self.err(m))?;
                        let (name, _) = self.take_pending();
                        let span = self.consume(len);
                        self.emit_scalar(name, span, emit);
                    }
                    b'-' | b'0'..=b'9' => {
                        let len = match number_token_len(b, self.scanned, at_eof) {
                            Ok(len) => len,
                            Err(scanned) => {
                                self.scanned = scanned;
                                return Ok(());
                            }
                        };
                        let (start, end) = (self.pos, self.pos + len);
                        let (name, _) = self.take_pending();
                        let span = self.consume(len);
                        self.ensure_started(emit);
                        emit(
                            SymEvent::StartElement {
                                name,
                                attributes: &[],
                            },
                            span,
                        );
                        emit(
                            SymEvent::Text {
                                content: &self.buf[start..end],
                            },
                            span,
                        );
                        emit(SymEvent::EndElement { name }, span);
                        self.after_value();
                    }
                    b't' | b'f' | b'n' => {
                        let word = match c {
                            b't' => "true",
                            b'f' => "false",
                            _ => "null",
                        };
                        if b.len() < word.len() {
                            if word.as_bytes().starts_with(b.as_bytes()) && !at_eof {
                                return Ok(()); // literal split across chunks
                            }
                            return Err(self.err(format!("invalid JSON value `{b}`")));
                        }
                        if !b.starts_with(word) {
                            return Err(self.err("invalid JSON value"));
                        }
                        let (name, _) = self.take_pending();
                        let span = self.consume(word.len());
                        self.ensure_started(emit);
                        emit(
                            SymEvent::StartElement {
                                name,
                                attributes: &[],
                            },
                            span,
                        );
                        if c != b'n' {
                            emit(SymEvent::Text { content: word }, span);
                        }
                        emit(SymEvent::EndElement { name }, span);
                        self.after_value();
                    }
                    _ => {
                        return Err(
                            self.err(format!("expected a JSON value, found `{}`", c as char))
                        )
                    }
                },
                Expect::MemberName => match c {
                    b'}' => {
                        let span = self.consume(1);
                        self.close_container(span, emit);
                    }
                    b'"' => {
                        let len = match string_token_len(b, self.scanned) {
                            Ok(len) => len,
                            Err(scanned) => {
                                if at_eof {
                                    return Err(self.err("unterminated string"));
                                }
                                self.scanned = scanned;
                                return Ok(());
                            }
                        };
                        self.text_scratch.clear();
                        decode_json_string(
                            &self.buf[self.pos + 1..self.pos + len - 1],
                            &mut self.text_scratch,
                        )
                        .map_err(|m| self.err(m))?;
                        let sym = Self::resolve(
                            &mut self.name_cache,
                            &self.symbols,
                            self.intern_names,
                            &self.text_scratch,
                        );
                        self.consume(len);
                        self.pending = Some((sym, false));
                        self.expect = Expect::Colon;
                    }
                    _ => return Err(self.err("expected object key or `}`")),
                },
                Expect::Colon => {
                    if c != b':' {
                        return Err(self.err("expected `:` after object key"));
                    }
                    self.consume(1);
                    self.expect = Expect::Value;
                }
                Expect::CommaOrEndObject => match c {
                    b',' => {
                        self.consume(1);
                        self.expect = Expect::MemberName;
                    }
                    b'}' => {
                        let span = self.consume(1);
                        self.close_container(span, emit);
                    }
                    _ => return Err(self.err("expected `,` or `}` in object")),
                },
                Expect::CommaOrEndArray => match c {
                    b',' => {
                        self.consume(1);
                        let item = match self.stack.last() {
                            Some(Frame::Array { item, .. }) => *item,
                            _ => unreachable!("array position without array frame"),
                        };
                        self.pending = Some((item, true));
                        self.expect = Expect::Value;
                    }
                    b']' => {
                        let span = self.consume(1);
                        self.close_container(span, emit);
                    }
                    _ => return Err(self.err("expected `,` or `]` in array")),
                },
            }
        }
    }

    /// Emits the element/text/element triple of a string scalar whose
    /// decoded text sits in `text_scratch`.
    fn emit_scalar<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        name: Sym,
        span: Span,
        emit: &mut F,
    ) {
        self.ensure_started(emit);
        emit(
            SymEvent::StartElement {
                name,
                attributes: &[],
            },
            span,
        );
        if !self.text_scratch.is_empty() {
            emit(
                SymEvent::Text {
                    content: &self.text_scratch,
                },
                span,
            );
        }
        emit(SymEvent::EndElement { name }, span);
        self.after_value();
    }
}

/// Length of the complete string token (including both quotes) at the
/// start of `b`, scanning from byte `from` (bytes before it were scanned
/// by an earlier call), or `Err(resume)` while the closing quote is
/// still missing: the offset the next call resumes from.
fn string_token_len(b: &str, from: usize) -> Result<usize, usize> {
    let bytes = b.as_bytes();
    debug_assert_eq!(bytes[0], b'"');
    // SWAR skip to the next `"` or `\`: ordinary string content (the
    // overwhelming majority of bytes) is crossed in word strides.
    let mut i = from.max(1);
    while i < bytes.len() {
        match scan::memchr2(b'"', b'\\', &bytes[i..]) {
            None => return Err(bytes.len()),
            Some(p) if bytes[i + p] == b'"' => return Ok(i + p + 1),
            // An escape: skip the backslash and the escaped byte (which
            // may still be missing at the buffer end -> keep waiting).
            Some(p) => i += p + 2,
        }
    }
    Err(i)
}

/// Length of the number token at the start of `b` (by token shape, not
/// full grammar), scanning from byte `from`, or `Err(resume)` while it
/// might continue into the next chunk.
fn number_token_len(b: &str, from: usize, at_eof: bool) -> Result<usize, usize> {
    let end = b.as_bytes()[from..]
        .iter()
        .position(|&c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        .map_or(b.len(), |p| from + p);
    if end == b.len() && !at_eof {
        Err(end)
    } else {
        Ok(end)
    }
}

/// Reads exactly four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Result<u32, String> {
    let mut v = 0;
    for _ in 0..4 {
        let c = chars.next().ok_or("truncated \\u escape")?;
        v = v * 16 + c.to_digit(16).ok_or("invalid \\u escape")?;
    }
    Ok(v)
}

/// Decodes the escapes of a string token's interior into `out`.
fn decode_json_string(inner: &str, out: &mut String) -> Result<(), String> {
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hi = hex4(&mut chars)?;
                if (0xdc00..0xe000).contains(&hi) {
                    return Err("unpaired low surrogate".to_string());
                }
                if (0xd800..0xdc00).contains(&hi) {
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return Err("unpaired high surrogate".to_string());
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err("invalid surrogate pair".to_string());
                    }
                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                } else {
                    out.push(char::from_u32(hi).unwrap_or('\u{fffd}'));
                }
            }
            _ => return Err("invalid escape sequence".to_string()),
        }
    }
    Ok(())
}

impl EventSource for JsonParser {
    fn symbols(&self) -> &Arc<Symbols> {
        JsonParser::symbols(self)
    }

    fn reset(&mut self) {
        JsonParser::reset(self);
    }

    fn invalidate_name_memo(&mut self) {
        JsonParser::invalidate_name_memo(self);
    }

    fn drive_batched(
        &mut self,
        reader: &mut dyn Read,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        JsonParser::drive_batched(self, reader, consume)
    }
}

/// Parses a whole JSON string into owned events under the crate's
/// mapping — the convenience form for tests and DOM building
/// (interning mode, fresh table).
pub fn parse_json(json: &str) -> Result<Vec<fx_xml::Event>, ParseError> {
    let mut parser = JsonParser::new();
    let symbols = Arc::clone(parser.symbols());
    let mut events = Vec::new();
    parser.feed_interned(json, &mut |ev, _| events.push(ev.to_owned(&symbols)))?;
    parser.finish_interned(&mut |ev, _| events.push(ev.to_owned(&symbols)))?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xml::{to_xml, Event};

    fn as_xml(json: &str) -> String {
        to_xml(&parse_json(json).unwrap()).unwrap()
    }

    #[test]
    fn objects_members_and_scalars_map() {
        assert_eq!(
            as_xml(r#"{"a": 1, "b": "two", "c": true, "d": null}"#),
            "<json><a>1</a><b>two</b><c>true</c><d/></json>"
        );
    }

    #[test]
    fn member_value_arrays_splice() {
        assert_eq!(
            as_xml(r#"{"a": [1, 2, 3]}"#),
            "<json><a>1</a><a>2</a><a>3</a></json>"
        );
        assert_eq!(as_xml(r#"{"a": []}"#), "<json/>");
    }

    #[test]
    fn nested_arrays_wrap() {
        assert_eq!(
            as_xml(r#"{"a": [[1, 2], [3]]}"#),
            "<json><a><item>1</item><item>2</item></a><a><item>3</item></a></json>"
        );
    }

    #[test]
    fn root_forms() {
        assert_eq!(as_xml("42"), "<json>42</json>");
        assert_eq!(as_xml(r#""hi""#), "<json>hi</json>");
        assert_eq!(
            as_xml("[1, 2]"),
            "<json><item>1</item><item>2</item></json>"
        );
        assert_eq!(as_xml("{}"), "<json/>");
        assert_eq!(as_xml("null"), "<json/>");
    }

    #[test]
    fn deep_structure_preserved() {
        assert_eq!(
            as_xml(r#"{"user": {"name": "ada", "langs": ["en", "fr"]}}"#),
            "<json><user><name>ada</name><langs>en</langs><langs>fr</langs></user></json>"
        );
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(as_xml(r#"{"s": "a\nb\t\"q\" \\ A 😀"}"#), {
            let decoded = "a\nb\t\"q\" \\ A \u{1f600}";
            format!("<json><s>{}</s></json>", fx_xml::escape_text(decoded))
        });
    }

    #[test]
    fn numbers_keep_literal_spelling() {
        assert_eq!(
            as_xml(r#"{"n": [0, -1.5, 2e10, 6.02e-23]}"#),
            "<json><n>0</n><n>-1.5</n><n>2e10</n><n>6.02e-23</n></json>"
        );
    }

    #[test]
    fn malformed_json_errors() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json(r#"{"a": 1} extra"#).is_err());
        assert!(parse_json(r#""unterminated"#).is_err());
    }

    #[test]
    fn chunked_parsing_matches_batch() {
        let docs = [
            r#"{"a": [1, 22, 333], "b": {"c": "x y", "d": null}}"#,
            r#"[true, false, "mix", {"k": [9]}]"#,
            r#"{"s": "aBc", "n": -1.5e3}"#,
        ];
        for doc in docs {
            let batch = parse_json(doc).unwrap();
            for chunk_size in 1..=doc.len().min(7) {
                let mut parser = JsonParser::new();
                let symbols = Arc::clone(parser.symbols());
                let mut events = Vec::new();
                let bytes = doc.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    let end = (i + chunk_size).min(bytes.len());
                    parser
                        .feed_interned(
                            std::str::from_utf8(&bytes[i..end]).unwrap(),
                            &mut |ev, _| events.push(ev.to_owned(&symbols)),
                        )
                        .unwrap();
                    i = end;
                }
                parser
                    .finish_interned(&mut |ev, _| events.push(ev.to_owned(&symbols)))
                    .unwrap();
                assert_eq!(events, batch, "chunk size {chunk_size} on {doc}");
            }
        }
    }

    #[test]
    fn spans_cover_source_tokens() {
        let json = r#"{"a": 17}"#;
        let mut parser = JsonParser::new();
        let symbols = Arc::clone(parser.symbols());
        let mut got = Vec::new();
        parser
            .feed_interned(json, &mut |ev, s| got.push((ev.to_owned(&symbols), s)))
            .unwrap();
        parser
            .finish_interned(&mut |ev, s| got.push((ev.to_owned(&symbols), s)))
            .unwrap();
        // <json> opens at `{`, <a>/text/</a> all span the `17` token.
        assert_eq!(got[1], (Event::start("json"), Span::new(0, 1)));
        assert_eq!(got[3], (Event::text("17"), Span::new(6, 8)));
        assert_eq!(got[5].0, Event::end("json"));
        assert_eq!(got[5].1, Span::new(8, 9));
    }

    #[test]
    fn lookup_only_bounds_the_table() {
        let symbols = Arc::new(Symbols::new());
        symbols.intern("json");
        symbols.intern("known");
        let before = symbols.len();
        let mut parser = JsonParser::with_symbols(Arc::clone(&symbols)).lookup_only();
        let mut unknown = 0;
        parser
            .feed_interned(r#"{"known": 1, "mystery": 2}"#, &mut |ev, _| {
                if let SymEvent::StartElement { name, .. } = ev {
                    if name == Sym::UNKNOWN {
                        unknown += 1;
                    }
                }
            })
            .unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        assert_eq!(unknown, 1);
        assert_eq!(symbols.len(), before, "lookup-only must not grow the table");
    }

    #[test]
    fn reset_allows_reuse() {
        let mut parser = JsonParser::new();
        let symbols = Arc::clone(parser.symbols());
        parser.feed_interned(r#"{"a": 1}"#, &mut |_, _| {}).unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        parser.reset();
        let mut events = Vec::new();
        parser
            .feed_interned(r#"[7]"#, &mut |ev, _| events.push(ev.to_owned(&symbols)))
            .unwrap();
        parser
            .finish_interned(&mut |ev, _| events.push(ev.to_owned(&symbols)))
            .unwrap();
        assert_eq!(events, parse_json("[7]").unwrap());
    }
}
