#include "trace/json_read.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lumi
{

namespace
{

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

/** A number token as uint64; @p fallback unless a plain integer. */
uint64_t
counterOf(std::string_view token, uint64_t fallback)
{
    uint64_t value = 0;
    auto [end, ec] = std::from_chars(token.data(),
                                     token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size())
        return fallback; // fractional/exponent tokens are not counters
    return value;
}

/**
 * The one tokenizer: an iterative walk with an explicit stack of
 * open containers, appending one node per value.
 */
class Tokenizer
{
  public:
    Tokenizer(std::string_view text, std::vector<JsonNode> &nodes,
              std::string *error)
        : text_(text), nodes_(nodes), error_(error)
    {
    }

    bool
    run()
    {
        if (text_.size() > std::numeric_limits<uint32_t>::max()) {
            pos_ = std::numeric_limits<uint32_t>::max();
            return fail("text too long for 32-bit tape offsets");
        }
        nodes_.reserve(text_.size() / 8 + 4);
        uint32_t open[kMaxJsonDepth] = {};
        int depth = 0;
        skipSpace();
        for (;;) {
            // A value starts at pos_.
            if (pos_ >= text_.size())
                return fail("unexpected end of input");
            char c = text_[pos_];
            if (c == '{' || c == '[') {
                if (depth == kMaxJsonDepth)
                    return fail("nesting too deep");
                open[depth++] = static_cast<uint32_t>(nodes_.size());
                push(pos_, pos_,
                     c == '{' ? JsonKind::Object : JsonKind::Array);
                pos_++;
                skipSpace();
                if (pos_ >= text_.size() ||
                    text_[pos_] != (c == '{' ? '}' : ']')) {
                    if (c == '{' && !key())
                        return false;
                    continue;
                }
                pos_++;
                close(open[--depth]);
            } else if (!scalar()) {
                return false;
            }

            // The value is complete: close containers until one
            // takes another value, or the document ends.
            for (;;) {
                if (depth == 0) {
                    skipSpace();
                    if (pos_ != text_.size())
                        return fail("trailing characters after document");
                    return true;
                }
                skipSpace();
                bool object =
                    nodes_[open[depth - 1]].kind == JsonKind::Object;
                if (pos_ >= text_.size())
                    return fail(object ? "unterminated object"
                                       : "unterminated array");
                if (text_[pos_] == ',') {
                    pos_++;
                    skipSpace();
                    if (object && !key())
                        return false;
                    break;
                }
                if (text_[pos_] != (object ? '}' : ']'))
                    return fail(object ? "expected ',' or '}'"
                                       : "expected ',' or ']'");
                pos_++;
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
            std::snprintf(buf, sizeof(buf), "offset %zu: %s", pos_,
                          reason);
            *error_ = buf;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            pos_++;
    }

    void
    push(size_t begin, size_t end, JsonKind kind, bool escaped = false)
    {
        auto index = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back({static_cast<uint32_t>(begin),
                          static_cast<uint32_t>(end), index + 1, kind,
                          escaped});
    }

    /** End container @p index at pos_ (just past its close). */
    void
    close(uint32_t index)
    {
        nodes_[index].end = static_cast<uint32_t>(pos_);
        nodes_[index].next = static_cast<uint32_t>(nodes_.size());
    }

    /** An object key and its ':'; pos_ then starts the value. */
    bool
    key()
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected object key");
        if (!string())
            return false;
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':')
            return fail("expected ':'");
        pos_++;
        skipSpace();
        return true;
    }

    bool
    scalar()
    {
        switch (text_[pos_]) {
          case '"': return string();
          case 't': return literal("true", JsonKind::True);
          case 'f': return literal("false", JsonKind::False);
          case 'n': return literal("null", JsonKind::Null);
          default:
            if (text_[pos_] == '-' || isDigit(text_[pos_]))
                return number();
            return fail("expected a value");
        }
    }

    bool
    literal(std::string_view word, JsonKind kind)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        push(pos_, pos_ + word.size(), kind);
        pos_ += word.size();
        return true;
    }

    bool
    digits()
    {
        if (pos_ >= text_.size() || !isDigit(text_[pos_]))
            return fail("malformed number");
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            pos_++;
        return true;
    }

    /** '-'? int frac? exp?, and finite as a double. */
    bool
    number()
    {
        size_t begin = pos_;
        if (text_[pos_] == '-')
            pos_++;
        if (pos_ < text_.size() && text_[pos_] == '0') {
            pos_++;
            if (pos_ < text_.size() && isDigit(text_[pos_]))
                return fail("malformed number"); // leading zero
        } else if (!digits()) {
            return false;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            pos_++;
            if (!digits())
                return false;
        }
        bool exponent = false;
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            pos_++;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                pos_++;
            if (!digits())
                return false;
            exponent = true;
        }
        // Only an exponent or a very long token can leave the double
        // range; underflow reads as a tiny value, overflow fails.
        if (exponent || pos_ - begin > 300) {
            std::string_view token = text_.substr(begin, pos_ - begin);
            double value = 0.0;
            if (std::from_chars(token.data(),
                                token.data() + token.size(), value)
                        .ec == std::errc::result_out_of_range &&
                std::isinf(std::strtod(std::string(token).c_str(),
                                       nullptr)))
                return fail("number out of range");
        }
        push(begin, pos_, JsonKind::Number);
        return true;
    }

    /** A string token; escapes are validated, not decoded. */
    bool
    string()
    {
        size_t begin = pos_++;
        bool escaped = false;
        for (;;) {
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\' &&
                   static_cast<unsigned char>(text_[pos_]) >= 0x20)
                pos_++;
            if (pos_ >= text_.size())
                return fail("unterminated string");
            char c = text_[pos_];
            if (c == '"')
                break;
            if (c != '\\')
                return fail("control character in string");
            escaped = true;
            if (!escape())
                return false;
        }
        pos_++;
        push(begin, pos_, JsonKind::String, escaped);
        return true;
    }

    /** One escape sequence at pos_ (the backslash). */
    bool
    escape()
    {
        if (pos_ + 1 >= text_.size())
            return fail("unterminated string");
        switch (text_[pos_ + 1]) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            pos_ += 2;
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
            if (text_.substr(pos_, 2) != "\\u")
                return fail("lone surrogate");
            if (!unicode(low))
                return false;
            return isLowSurrogate(low) || fail("lone surrogate");
          }
          default:
            return fail("unknown escape");
        }
    }

    /** "\uXXXX" at pos_ into @p code; pos_ moves past it. */
    bool
    unicode(unsigned &code)
    {
        if (pos_ + 6 > text_.size())
            return fail("truncated \\u escape");
        for (size_t i = pos_ + 2; i < pos_ + 6; i++) {
            if (hexValue(text_[i]) < 0)
                return fail("bad \\u escape");
        }
        code = hex4(text_, pos_ + 2);
        pos_ += 6;
        return true;
    }

    std::string_view text_;
    std::vector<JsonNode> &nodes_;
    std::string *error_;
    size_t pos_ = 0;
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
    if (kind() != JsonKind::Number)
        return fallback;
    return counterOf(raw(), fallback);
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
    if (kind != Kind::Number)
        return fallback;
    return counterOf(token, fallback);
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
