#include "trace/json_read.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lumi
{

namespace
{

/**
 * A number token of at most this many bytes and no exponent is below
 * 1e300, so finite as a double with no range check.
 */
constexpr std::ptrdiff_t kLongNumber = 300;

/** Most tape nodes a parse reserves before it starts (16 MiB). */
constexpr size_t kMaxReserve = size_t{1} << 20;

/** Bytes a string runs over: no quote, backslash or control byte. */
constexpr std::array<bool, 256> kPlainByte = [] {
    std::array<bool, 256> plain{};
    for (int c = 0x20; c < 256; c++)
        plain[c] = c != '"' && c != '\\';
    return plain;
}();

/** RFC 8259 whitespace: space, tab, LF, CR (not \v or \f). */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Value of hex digit @p c, or -1. */
int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** The four hex digits at @p at (already validated). */
unsigned
hex4(std::string_view text, size_t at)
{
    unsigned code = 0;
    for (size_t i = at; i < at + 4; i++)
        code = code << 4 | static_cast<unsigned>(hexValue(text[i]));
    return code;
}

bool
isHighSurrogate(unsigned code)
{
    return code >= 0xd800 && code <= 0xdbff;
}

bool
isLowSurrogate(unsigned code)
{
    return code >= 0xdc00 && code <= 0xdfff;
}

void
appendUtf8(std::string &out, unsigned code)
{
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    }
}

/** Decode validated string contents @p body (quotes stripped). */
void
decodeString(std::string_view body, std::string &out)
{
    out.clear();
    out.reserve(body.size());
    for (size_t i = 0; i < body.size(); i++) {
        char c = body[i];
        if (c != '\\') {
            out += c;
            continue;
        }
        char esc = body[++i];
        switch (esc) {
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = hex4(body, i + 1);
            i += 4;
            if (isHighSurrogate(code)) {
                unsigned low = hex4(body, i + 3); // past "\u"
                i += 6;
                code = 0x10000 + ((code - 0xd800) << 10) +
                       (low - 0xdc00);
            }
            appendUtf8(out, code);
            break;
          }
          default: out += esc; break; // '"', '\\', '/'
        }
    }
}

/** A validated number token as double; @p fallback out of range. */
double
numberOf(std::string_view token, double fallback)
{
    double value = 0.0;
    auto [end, ec] = std::from_chars(token.data(),
                                     token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size())
        return fallback;
    return value;
}

/** A number token as uint64; false unless a plain integer in range. */
bool
counterOf(std::string_view token, uint64_t &out)
{
    uint64_t value = 0;
    auto [end, ec] = std::from_chars(token.data(),
                                     token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size())
        return false; // fractional/exponent tokens are not counters
    out = value;
    return true;
}

/**
 * The one tokenizer: an iterative walk with an explicit stack of
 * open containers, appending one node per value. It reads through
 * one cursor pointer, so a scan loop checks only the end pointer.
 */
class Tokenizer
{
  public:
    Tokenizer(std::string_view text, std::vector<JsonNode> &nodes,
              std::string *error)
        : base_(text.data()), end_(text.data() + text.size()),
          at_(base_), nodes_(nodes), error_(error)
    {
    }

    bool
    run()
    {
        size_t size = static_cast<size_t>(end_ - base_);
        if (size > std::numeric_limits<uint32_t>::max()) {
            at_ = base_ + std::numeric_limits<uint32_t>::max();
            return fail("text too long for 32-bit tape offsets");
        }
        // The densest run reports (numeric arrays of table4 runs) hold
        // a node per 4.2 bytes, so a quarter of the text keeps their
        // tape from regrowing; past the cap a document's tape grows
        // as it goes instead of reserving its worst case up front.
        nodes_.reserve(std::min<size_t>(size / 4 + 2, kMaxReserve));
        uint32_t open[kMaxJsonDepth] = {};
        int depth = 0;
        skipSpace();
        for (;;) {
            // A value starts at at_.
            if (at_ == end_)
                return fail("unexpected end of input");
            char c = *at_;
            if (c == '{' || c == '[') {
                if (depth == kMaxJsonDepth)
                    return fail("nesting too deep");
                open[depth++] = static_cast<uint32_t>(nodes_.size());
                push(at_, at_,
                     c == '{' ? JsonKind::Object : JsonKind::Array);
                at_++;
                skipSpace();
                if (!next(c == '{' ? '}' : ']')) {
                    if (c == '{' && !key())
                        return false;
                    continue;
                }
                at_++;
                close(open[--depth]);
            } else if (!scalar()) {
                return false;
            }

            // The value is complete: close containers until one
            // takes another value, or the document ends.
            for (;;) {
                skipSpace();
                if (depth == 0) {
                    if (at_ != end_)
                        return fail("trailing characters after document");
                    return true;
                }
                bool object =
                    nodes_[open[depth - 1]].kind == JsonKind::Object;
                if (at_ == end_)
                    return fail(object ? "unterminated object"
                                       : "unterminated array");
                if (*at_ == ',') {
                    at_++;
                    skipSpace();
                    if (object) {
                        if (!key())
                            return false;
                        break;
                    }
                    // A number in an array skips the value dispatch:
                    // most of a run report's values are one.
                    if (at_ == end_ || (*at_ != '-' && !isDigit(*at_)))
                        break;
                    if (!number())
                        return false;
                    continue;
                }
                if (*at_ != (object ? '}' : ']'))
                    return fail(object ? "expected ',' or '}'"
                                       : "expected ',' or ']'");
                at_++;
                close(open[--depth]);
            }
        }
    }

  private:
    bool
    fail(const char *reason)
    {
        if (error_) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "offset %zu: %s",
                          static_cast<size_t>(at_ - base_), reason);
            *error_ = buf;
        }
        return false;
    }

    // The scanners a number runs through are forced inline: out of
    // line, their calls cost as much as the scanning (7-10% of the
    // tokenizer's time on run reports).

    /** True when the cursor is in the text and at @p c. */
    [[gnu::always_inline]] bool
    next(char c) const
    {
        return at_ != end_ && *at_ == c;
    }

    [[gnu::always_inline]] void
    skipSpace()
    {
        while (at_ != end_ && isSpace(*at_))
            at_++;
    }

    [[gnu::always_inline]] void
    push(const char *begin, const char *end, JsonKind kind,
         bool escaped = false)
    {
        auto index = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back({static_cast<uint32_t>(begin - base_),
                          static_cast<uint32_t>(end - base_), index + 1,
                          kind, escaped});
    }

    /** End container @p index at the cursor (just past its close). */
    void
    close(uint32_t index)
    {
        nodes_[index].end = static_cast<uint32_t>(at_ - base_);
        nodes_[index].next = static_cast<uint32_t>(nodes_.size());
    }

    /** An object key and its ':'; the cursor then starts the value. */
    bool
    key()
    {
        if (!next('"'))
            return fail("expected object key");
        if (!string())
            return false;
        skipSpace();
        if (!next(':'))
            return fail("expected ':'");
        at_++;
        skipSpace();
        return true;
    }

    bool
    scalar()
    {
        switch (*at_) {
          case '"': return string();
          case 't': return literal("true", JsonKind::True);
          case 'f': return literal("false", JsonKind::False);
          case 'n': return literal("null", JsonKind::Null);
          default:
            if (*at_ == '-' || isDigit(*at_))
                return number();
            return fail("expected a value");
        }
    }

    bool
    literal(std::string_view word, JsonKind kind)
    {
        if (std::string_view(at_, std::min<size_t>(word.size(),
                                                   end_ - at_)) != word)
            return fail("bad literal");
        push(at_, at_ + word.size(), kind);
        at_ += word.size();
        return true;
    }

    /** One or more digits at the cursor. */
    [[gnu::always_inline]] bool
    digits()
    {
        const char *first = at_;
        while (at_ != end_ && isDigit(*at_))
            at_++;
        return at_ != first || fail("malformed number");
    }

    /** '-'? int frac? exp?, and finite as a double. */
    [[gnu::always_inline]] bool
    number()
    {
        const char *begin = at_;
        if (*at_ == '-')
            at_++;
        if (next('0')) {
            at_++;
            if (at_ != end_ && isDigit(*at_))
                return fail("malformed number"); // leading zero
        } else if (!digits()) {
            return false;
        }
        if (next('.')) {
            at_++;
            if (!digits())
                return false;
        }
        bool exponent = false;
        if (next('e') || next('E')) {
            at_++;
            if (next('+') || next('-'))
                at_++;
            if (!digits())
                return false;
            exponent = true;
        }
        // Only an exponent or a very long token can leave the double
        // range; underflow reads as a tiny value, overflow fails.
        if (exponent || at_ - begin > kLongNumber) {
            double value = 0.0;
            if (std::from_chars(begin, at_, value).ec ==
                    std::errc::result_out_of_range &&
                std::isinf(std::strtod(std::string(begin, at_).c_str(),
                                       nullptr)))
                return fail("number out of range");
        }
        push(begin, at_, JsonKind::Number);
        return true;
    }

    /** A string token; escapes are validated, not decoded. */
    bool
    string()
    {
        const char *begin = at_++;
        bool escaped = false;
        for (;;) {
            while (at_ != end_ &&
                   kPlainByte[static_cast<unsigned char>(*at_)])
                at_++;
            if (at_ == end_)
                return fail("unterminated string");
            if (*at_ == '"')
                break;
            if (*at_ != '\\')
                return fail("control character in string");
            escaped = true;
            if (!escape())
                return false;
        }
        at_++;
        push(begin, at_, JsonKind::String, escaped);
        return true;
    }

    /** One escape sequence at the cursor (the backslash). */
    bool
    escape()
    {
        if (end_ - at_ < 2)
            return fail("unterminated string");
        switch (at_[1]) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            at_ += 2;
            return true;
          case 'u': {
            unsigned code = 0;
            if (!unicode(code))
                return false;
            if (isLowSurrogate(code))
                return fail("lone surrogate");
            if (!isHighSurrogate(code))
                return true;
            unsigned low = 0;
            if (!next('\\') || end_ - at_ < 2 || at_[1] != 'u')
                return fail("lone surrogate");
            if (!unicode(low))
                return false;
            return isLowSurrogate(low) || fail("lone surrogate");
          }
          default:
            return fail("unknown escape");
        }
    }

    /** "\uXXXX" at the cursor into @p code; the cursor moves past it. */
    bool
    unicode(unsigned &code)
    {
        if (end_ - at_ < 6)
            return fail("truncated \\u escape");
        for (int i = 2; i < 6; i++) {
            if (hexValue(at_[i]) < 0)
                return fail("bad \\u escape");
        }
        code = hex4(std::string_view(at_ + 2, 4), 0);
        at_ += 6;
        return true;
    }

    const char *base_;
    const char *end_;
    /** The cursor: the next byte to read. */
    const char *at_;
    std::vector<JsonNode> &nodes_;
    std::string *error_;
};

/** Build the DOM of @p ref (depth is bounded by the tokenizer). */
void
materialize(JsonRef ref, JsonValue &out)
{
    out.begin = ref.begin();
    out.end = ref.end();
    switch (ref.kind()) {
      case JsonKind::Null:
        out.kind = JsonValue::Kind::Null;
        break;
      case JsonKind::False:
      case JsonKind::True:
        out.kind = JsonValue::Kind::Bool;
        out.boolean = ref.boolean();
        break;
      case JsonKind::Number:
        out.kind = JsonValue::Kind::Number;
        out.token = ref.raw();
        break;
      case JsonKind::String:
        out.kind = JsonValue::Kind::String;
        out.text = ref.string();
        break;
      case JsonKind::Array: {
        out.kind = JsonValue::Kind::Array;
        out.items.resize(ref.size());
        size_t i = 0;
        for (JsonRef item : ref.items())
            materialize(item, out.items[i++]);
        break;
      }
      case JsonKind::Object:
        out.kind = JsonValue::Kind::Object;
        out.members.reserve(ref.size());
        for (JsonMember member : ref.members()) {
            auto &[key, value] =
                out.members.emplace_back(member.key.string(),
                                         JsonValue());
            materialize(member.value, value);
        }
        break;
    }
}

} // namespace

bool
JsonTape::parse(std::string_view text, std::string *error)
{
    text_ = text;
    nodes_.clear();
    if (error)
        error->clear();
    if (Tokenizer(text, nodes_, error).run())
        return true;
    nodes_.clear();
    return false;
}

double
JsonRef::number(double fallback) const
{
    if (!tape_)
        return fallback;
    if (kind() == JsonKind::Null)
        return std::nan(""); // JsonWriter writes NaN/inf as null.
    if (kind() != JsonKind::Number)
        return fallback;
    return numberOf(raw(), fallback);
}

uint64_t
JsonRef::counter(uint64_t fallback) const
{
    uint64_t value = 0;
    return readCounter(value) ? value : fallback;
}

bool
JsonRef::readCounter(uint64_t &out) const
{
    return kind() == JsonKind::Number && counterOf(raw(), out);
}

bool
JsonRef::readCounters(std::vector<uint64_t> &out) const
{
    if (kind() != JsonKind::Array)
        return false;
    // Numbers are leaves, so an array of counters is the run of
    // nodes up to the array's next index.
    uint32_t last = node().next;
    out.reserve(out.size() + (last - index_ - 1));
    const char *text = tape_->text().data();
    for (uint32_t i = index_ + 1; i < last; i++) {
        const JsonNode &item = tape_->node(i);
        uint64_t value = 0;
        if (item.kind != JsonKind::Number ||
            !counterOf({text + item.begin, item.end - item.begin}, value))
            return false;
        out.push_back(value);
    }
    return true;
}

std::string_view
JsonRef::string(std::string &scratch) const
{
    if (kind() != JsonKind::String)
        return {};
    std::string_view body = raw().substr(1, end() - begin() - 2);
    if (!node().escaped)
        return body;
    decodeString(body, scratch);
    return scratch;
}

std::string
JsonRef::string() const
{
    std::string scratch;
    std::string_view body = string(scratch);
    return body.data() == scratch.data() ? std::move(scratch)
                                         : std::string(body);
}

bool
JsonRef::equals(std::string_view text) const
{
    if (kind() != JsonKind::String)
        return false;
    if (!node().escaped)
        return end() - begin() - 2 == text.size() &&
               raw().substr(1, text.size()) == text;
    std::string scratch;
    return string(scratch) == text;
}

JsonRef
JsonRef::find(std::string_view key) const
{
    for (JsonMember member : members()) {
        if (member.key.equals(key))
            return member.value;
    }
    return {};
}

size_t
JsonRef::size() const
{
    size_t count = 0;
    if (isArray()) {
        for ([[maybe_unused]] JsonRef item : items())
            count++;
    } else {
        for ([[maybe_unused]] JsonMember member : members())
            count++;
    }
    return count;
}

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, value] : members) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

double
JsonValue::number(double fallback) const
{
    if (kind == Kind::Null)
        return std::nan(""); // JsonWriter writes NaN/inf as null.
    if (kind != Kind::Number)
        return fallback;
    return numberOf(token, fallback);
}

uint64_t
JsonValue::counter(uint64_t fallback) const
{
    uint64_t value = 0;
    return kind == Kind::Number && counterOf(token, value) ? value
                                                           : fallback;
}

std::string
JsonValue::str(const std::string &name,
               const std::string &fallback) const
{
    const JsonValue *member = find(name);
    return member && member->kind == Kind::String ? member->text
                                                  : fallback;
}

double
JsonValue::num(const std::string &name, double fallback) const
{
    const JsonValue *member = find(name);
    return member ? member->number(fallback) : fallback;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    JsonTape tape;
    if (!tape.parse(text, error))
        return false;
    out = JsonValue();
    materialize(tape.root(), out);
    return true;
}

} // namespace lumi
