/**
 * @file
 * Minimal streaming JSON writer shared by the tracer, the stat
 * registry and the run-report serializer.
 *
 * The writer appends to an internal string and tracks container
 * nesting so commas are inserted automatically; values are emitted
 * in one pass with no intermediate DOM. Doubles that cannot be
 * represented in JSON (NaN, infinities) are written as null, which
 * keeps the output parseable by strict readers.
 */

#ifndef LUMI_TRACE_JSON_HH
#define LUMI_TRACE_JSON_HH

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace lumi
{

/** Incremental JSON serializer (objects, arrays, scalars). */
class JsonWriter
{
  public:
    /** Escape @p text for use inside a JSON string literal. */
    static std::string
    escape(const std::string &text)
    {
        std::string out;
        out.reserve(text.size() + 2);
        for (char c : text) {
            switch (c) {
              case '"': out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\n': out += "\\n"; break;
              case '\r': out += "\\r"; break;
              case '\t': out += "\\t"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
        return out;
    }

    void
    beginObject()
    {
        comma();
        out_ += '{';
        stack_.push_back(false);
    }

    void
    endObject()
    {
        out_ += '}';
        stack_.pop_back();
    }

    void
    beginArray()
    {
        comma();
        out_ += '[';
        stack_.push_back(false);
    }

    void
    endArray()
    {
        out_ += ']';
        stack_.pop_back();
    }

    /** Write an object key; the next emission is its value. */
    void
    key(const std::string &name)
    {
        comma();
        out_ += '"';
        out_ += escape(name);
        out_ += "\":";
        pendingValue_ = true;
    }

    void
    value(const std::string &text)
    {
        comma();
        out_ += '"';
        out_ += escape(text);
        out_ += '"';
    }

    void value(const char *text) { value(std::string(text)); }

    void
    value(uint64_t number)
    {
        comma();
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, number);
        out_ += buf;
    }

    void
    value(int64_t number)
    {
        comma();
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64, number);
        out_ += buf;
    }

    void value(int number) { value(static_cast<int64_t>(number)); }

    void
    value(double number)
    {
        comma();
        if (!std::isfinite(number)) {
            out_ += "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", number);
        out_ += buf;
    }

    void
    value(bool flag)
    {
        comma();
        out_ += flag ? "true" : "false";
    }

    /**
     * Write @p value: a scalar as value() does, a record (a type with
     * a static fields(self, visit) list) as an object, field by field.
     */
    template <typename T>
    void
    write(const T &value)
    {
        if constexpr (std::is_same_v<T, bool> ||
                      std::is_same_v<T, std::string>) {
            this->value(value);
        } else if constexpr (std::is_floating_point_v<T>) {
            this->value(static_cast<double>(value));
        } else if constexpr (std::is_signed_v<T>) {
            this->value(static_cast<int64_t>(value));
        } else if constexpr (std::is_unsigned_v<T>) {
            this->value(static_cast<uint64_t>(value));
        } else {
            beginObject();
            T::fields(value, [&](const char *name, const auto &field) {
                key(name);
                write(field);
            });
            endObject();
        }
    }

    /** Write @p values as an array, each as write() does. */
    template <typename T>
    void
    write(const std::vector<T> &values)
    {
        beginArray();
        for (const T &value : values)
            write(value);
        endArray();
    }

    /** Splice pre-serialized JSON (e.g. an embedded document). */
    void
    raw(const std::string &json)
    {
        comma();
        out_ += json;
    }

    const std::string &str() const { return out_; }

  private:
    void
    comma()
    {
        if (pendingValue_) {
            // Value directly following a key: no separator.
            pendingValue_ = false;
            return;
        }
        if (!stack_.empty()) {
            if (stack_.back())
                out_ += ',';
            stack_.back() = true;
        }
    }

    std::string out_;
    /** Per-container "already has an element" flags. */
    std::vector<bool> stack_;
    bool pendingValue_ = false;
};

} // namespace lumi

#endif // LUMI_TRACE_JSON_HH
