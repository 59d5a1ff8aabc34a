#ifndef OE_NET_MESSAGE_H_
#define OE_NET_MESSAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace oe::net {

/// Raw wire payload.
using Buffer = std::vector<uint8_t>;

/// Little-endian append-only serializer for RPC payloads.
class Writer {
 public:
  explicit Writer(Buffer* out) : out_(out) {}

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutFloat(float v) { PutRaw(&v, sizeof(v)); }

  void PutU64Span(const uint64_t* data, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutRaw(data, n * sizeof(uint64_t));
  }
  void PutFloatSpan(const float* data, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutRaw(data, n * sizeof(float));
  }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

  /// Appends `n` zero bytes and returns where they start, so an encoder can
  /// gather or produce a span in place instead of staging it elsewhere. The
  /// pointer is valid until the buffer next grows.
  uint8_t* Extend(size_t n) {
    const size_t old_size = out_->size();
    out_->resize(old_size + n);
    return out_->data() + old_size;
  }

 private:
  Buffer* out_;
};

/// Bounds-checked deserializer; every getter returns an error Status on
/// truncated input instead of reading out of bounds.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const Buffer& buffer)
      : Reader(buffer.data(), buffer.size()) {}

  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetFloat(float* v) { return GetRaw(v, sizeof(*v)); }

  /// A length-prefixed span left in place: `count` elements of the
  /// requested size starting at `data`, which has no alignment guarantee.
  struct SpanView {
    const uint8_t* data = nullptr;
    size_t count = 0;
  };

  // Span getters validate the claimed length against the remaining bytes
  // BEFORE reading or allocating: a hostile or corrupt length field must
  // not be able to trigger a giant allocation. A rejected span consumes
  // nothing.
  Status GetSpanView(size_t elem_size, SpanView* view) {
    uint32_t n = 0;
    if (remaining() < sizeof(n)) return Status::Corruption("message truncated");
    std::memcpy(&n, data_ + pos_, sizeof(n));
    if (static_cast<size_t>(n) * elem_size > remaining() - sizeof(n)) {
      return Status::Corruption("span length exceeds message");
    }
    view->data = data_ + pos_ + sizeof(n);
    view->count = n;
    pos_ += sizeof(n) + static_cast<size_t>(n) * elem_size;
    return Status::OK();
  }
  Status GetU64Span(std::vector<uint64_t>* out) { return GetSpan(out); }
  Status GetFloatSpan(std::vector<float>* out) { return GetSpan(out); }
  Status GetString(std::string* out) {
    uint32_t n = 0;
    OE_RETURN_IF_ERROR(GetU32(&n));
    if (n > remaining()) {
      return Status::Corruption("string length exceeds message");
    }
    out->resize(n);
    return GetRaw(out->data(), n);
  }

  Status GetRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::Corruption("message truncated");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  Status GetSpan(std::vector<T>* out) {
    SpanView view;
    OE_RETURN_IF_ERROR(GetSpanView(sizeof(T), &view));
    out->resize(view.count);
    if (view.count != 0) {
      std::memcpy(out->data(), view.data, view.count * sizeof(T));
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace oe::net

#endif  // OE_NET_MESSAGE_H_
