/**
 * @file
 * The JSON reader, the counterpart of the streaming JsonWriter
 * (json.hh): one flat-tape tokenizer, JsonTape, and the two ways to
 * read what it tokenized.
 *
 * JsonTape::parse() validates a document and records one 16-byte
 * JsonNode per value: its kind, its [begin, end) byte range in the
 * caller's text and the index one past its subtree, so a whole
 * member is skipped in O(1). Nothing is copied or converted while
 * parsing: a string is decoded when it is read, and only when it
 * holds an escape; a number is converted on demand with
 * std::from_chars. A JsonRef is a view of one node; the run-report
 * readers (result cache, query layer) read reports through it.
 *
 * Two properties matter to those readers:
 *
 *  - every value's byte range indexes the source text, so an
 *    embedded document (the spliced stat-registry dump) can be
 *    re-extracted *byte-identically* instead of re-serialized;
 *  - object members keep source order, and numbers keep their raw
 *    token, so integer counters round-trip without a double detour.
 *
 * The grammar is strict RFC 8259: whitespace is space, tab, LF or
 * CR; numbers have no '+' sign, leading zero, bare '.' or overflow
 * to infinity; strings hold no raw control character, and a \u
 * surrogate must come in a pair (decoded as 4-byte UTF-8). Nesting
 * deeper than kMaxJsonDepth fails, and so does a text whose offsets
 * do not fit in 32 bits. One writer-ism reads back: JsonWriter emits
 * non-finite doubles as null, which reads as NaN where a number is
 * expected. Errors read "offset N: reason".
 *
 * JsonValue is a tree-owning DOM materialized from the tape, for
 * callers (bench binaries, tests) that want one; parseJson() builds
 * it. The tape itself lives for one parse of one text.
 */

#ifndef LUMI_TRACE_JSON_READ_HH
#define LUMI_TRACE_JSON_READ_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lumi
{

/** Deepest array/object nesting the tokenizer accepts. */
inline constexpr int kMaxJsonDepth = 512;

/** Kind of one tape node. */
enum class JsonKind : uint8_t
{
    Null,
    False,
    True,
    Number,
    String,
    Array,
    Object,
};

/**
 * One value on the tape. An object's children are its keys (String
 * nodes) each followed by its value's subtree; an array's are its
 * elements' subtrees.
 */
struct JsonNode
{
    /** [begin, end) of the value in the text (quotes included). */
    uint32_t begin = 0;
    uint32_t end = 0;
    /** Index one past this node's subtree. */
    uint32_t next = 0;
    JsonKind kind = JsonKind::Null;
    /** A String whose contents hold a backslash escape. */
    bool escaped = false;
};

static_assert(sizeof(JsonNode) == 16, "one 16-byte node per value");

class JsonRef;
class JsonTape;
struct JsonMember;
template <typename T> class JsonRange;

/** Array elements in order (each a JsonRef). */
using JsonItems = JsonRange<JsonRef>;
/** Object members in source order (each a JsonMember). */
using JsonMembers = JsonRange<JsonMember>;

/**
 * A view of one node of a JsonTape, valid while the tape and its
 * text live. A default-constructed ref is absent: it converts to
 * false, isNull() is false, and every accessor returns its fallback
 * or an empty value.
 */
class JsonRef
{
  public:
    JsonRef() = default;
    JsonRef(const JsonTape *tape, uint32_t index)
        : tape_(tape), index_(index)
    {
    }

    /** False for an absent value. */
    explicit operator bool() const { return tape_ != nullptr; }

    inline JsonKind kind() const;
    bool isObject() const { return kind() == JsonKind::Object; }
    bool isArray() const { return kind() == JsonKind::Array; }
    bool isNumber() const { return kind() == JsonKind::Number; }
    bool isString() const { return kind() == JsonKind::String; }
    /** True for a present null (an absent value is not null). */
    bool isNull() const { return tape_ && kind() == JsonKind::Null; }
    /** True only for the literal true. */
    bool boolean() const { return kind() == JsonKind::True; }

    /** Byte range of the value in the parsed text (0 if absent). */
    inline size_t begin() const;
    inline size_t end() const;
    /** The value's source bytes (a number's raw token). */
    inline std::string_view raw() const;

    /**
     * Number as double; NaN for null, @p fallback when absent or of
     * another kind.
     */
    double number(double fallback = 0.0) const;

    /** Number as uint64 via the raw token; @p fallback if invalid. */
    uint64_t counter(uint64_t fallback = 0) const;

    /**
     * Set @p out to a Number whose raw token is a plain integer that
     * fits uint64; false (and @p out untouched) for any other value.
     */
    bool readCounter(uint64_t &out) const;

    /**
     * Append the elements of an array to @p out; false unless this
     * is an array and every element reads as a counter.
     */
    bool readCounters(std::vector<uint64_t> &out) const;

    /** Decoded contents of a String; empty for any other kind. */
    std::string string() const;

    /**
     * Decoded contents of a String, as a view of the text when it
     * holds no escape and of @p scratch otherwise.
     */
    std::string_view string(std::string &scratch) const;

    /** True when this is a String whose contents equal @p text. */
    bool equals(std::string_view text) const;

    /** First member named @p key; absent when none or no object. */
    JsonRef find(std::string_view key) const;

    /** Number of array elements or object members. */
    size_t size() const;

    /** Array elements; empty for any other kind. */
    inline JsonItems items() const;

    /** Object members; empty for any other kind. */
    inline JsonMembers members() const;

  private:
    inline const JsonNode &node() const;

    const JsonTape *tape_ = nullptr;
    uint32_t index_ = 0;
};

/** One object member: its key (a String) and its value. */
struct JsonMember
{
    JsonRef key;
    JsonRef value;
};

/**
 * The children of one array (T = JsonRef) or object (T =
 * JsonMember) node, visited by following each subtree's next index.
 */
template <typename T>
class JsonRange
{
  public:
    class iterator
    {
      public:
        iterator(const JsonTape *tape, uint32_t index)
            : tape_(tape), index_(index)
        {
        }
        inline T operator*() const;
        inline iterator &operator++();
        bool
        operator==(const iterator &other) const
        {
            return index_ == other.index_;
        }

      private:
        const JsonTape *tape_;
        uint32_t index_;
    };

    JsonRange(const JsonTape *tape, uint32_t first, uint32_t last)
        : tape_(tape), first_(first), last_(last)
    {
    }
    iterator begin() const { return {tape_, first_}; }
    iterator end() const { return {tape_, last_}; }
    bool empty() const { return first_ == last_; }

  private:
    const JsonTape *tape_;
    uint32_t first_;
    uint32_t last_;
};

/**
 * The flat tape of one parsed text. It views the caller's text,
 * which must outlive it and every JsonRef into it; refs hold the
 * tape's address, so it neither copies nor moves. parse() again to
 * reuse it for another text.
 */
class JsonTape
{
  public:
    JsonTape() = default;
    JsonTape(const JsonTape &) = delete;
    JsonTape &operator=(const JsonTape &) = delete;

    /**
     * Tokenize and validate @p text. On failure returns false, the
     * tape is empty and, when @p error is non-null, it holds a
     * one-line "offset N: reason" description. Surrounding
     * whitespace is allowed; trailing garbage is an error.
     */
    bool parse(std::string_view text, std::string *error = nullptr);

    /** The document's top-level value; absent before a parse. */
    JsonRef
    root() const
    {
        return nodes_.empty() ? JsonRef() : JsonRef(this, 0);
    }

    /** The parsed text. */
    std::string_view text() const { return text_; }

    /** Node @p index (a JsonRef's view). */
    const JsonNode &node(uint32_t index) const { return nodes_[index]; }

  private:
    std::string_view text_;
    std::vector<JsonNode> nodes_;
};

inline const JsonNode &
JsonRef::node() const
{
    return tape_->node(index_);
}

inline JsonKind
JsonRef::kind() const
{
    return tape_ ? node().kind : JsonKind::Null;
}

inline size_t
JsonRef::begin() const
{
    return tape_ ? node().begin : 0;
}

inline size_t
JsonRef::end() const
{
    return tape_ ? node().end : 0;
}

inline std::string_view
JsonRef::raw() const
{
    return tape_ ? tape_->text().substr(begin(), end() - begin())
                 : std::string_view();
}

inline JsonItems
JsonRef::items() const
{
    if (kind() != JsonKind::Array)
        return {nullptr, 0, 0};
    return {tape_, index_ + 1, node().next};
}

inline JsonMembers
JsonRef::members() const
{
    if (kind() != JsonKind::Object)
        return {nullptr, 0, 0};
    return {tape_, index_ + 1, node().next};
}

template <>
inline JsonRef
JsonItems::iterator::operator*() const
{
    return {tape_, index_};
}

template <>
inline JsonItems::iterator &
JsonItems::iterator::operator++()
{
    index_ = tape_->node(index_).next;
    return *this;
}

template <>
inline JsonMember
JsonMembers::iterator::operator*() const
{
    return {{tape_, index_}, {tape_, index_ + 1}};
}

template <>
inline JsonMembers::iterator &
JsonMembers::iterator::operator++()
{
    index_ = tape_->node(index_ + 1).next; // past key and value
    return *this;
}

/** One parsed JSON value (tree-owning), materialized from a tape. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Raw source token of a number (sign/digits as written). */
    std::string token;
    /** Decoded string contents (String kind). */
    std::string text;
    std::vector<JsonValue> items; ///< Array elements
    /** Object members in source order. */
    std::vector<std::pair<std::string, JsonValue>> members;
    /** Byte range of this value in the parsed text. */
    size_t begin = 0;
    size_t end = 0;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; null when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Number as double; NaN for null, @p fallback otherwise. */
    double number(double fallback = 0.0) const;

    /** Number as uint64 via the raw token; @p fallback if invalid. */
    uint64_t counter(uint64_t fallback = 0) const;

    /** Member string value, or @p fallback. */
    std::string str(const std::string &name,
                    const std::string &fallback = "") const;

    /** Member number value, or @p fallback. */
    double num(const std::string &name, double fallback = 0.0) const;
};

/**
 * Parse @p text into @p out: JsonTape::parse() plus one
 * materializing pass, with the same grammar and errors.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

} // namespace lumi

#endif // LUMI_TRACE_JSON_READ_HH
