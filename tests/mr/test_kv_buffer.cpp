#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "mr/kv_buffer.hpp"

namespace vrmr::mr {
namespace {

struct Value8 {
  float a;
  float b;
};

TEST(KvBuffer, StartsEmpty) {
  KvBuffer buf(8);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.bytes(), 0u);
  EXPECT_EQ(buf.value_size(), 8u);
}

TEST(KvBuffer, RejectsZeroValueSize) { EXPECT_THROW(KvBuffer buf(0), vrmr::CheckError); }

TEST(KvBuffer, AppendAndRead) {
  KvBuffer buf(8);
  const Value8 v1{1.0f, 2.0f};
  const Value8 v2{3.0f, 4.0f};
  buf.append(10, &v1);
  buf.append(20, &v2);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.key(0), 10u);
  EXPECT_EQ(buf.key(1), 20u);
  Value8 out{};
  std::memcpy(&out, buf.value(1), 8);
  EXPECT_EQ(out.a, 3.0f);
  EXPECT_EQ(out.b, 4.0f);
  // Bytes = pairs * (key + value).
  EXPECT_EQ(buf.bytes(), 2u * (4 + 8));
}

TEST(KvBuffer, TypedHelpers) {
  KvBuffer buf = KvBuffer::for_value_type<Value8>();
  buf.append_typed(7, Value8{5.0f, 6.0f});
  EXPECT_EQ(buf.value_as<Value8>(0).a, 5.0f);
  EXPECT_EQ(buf.value_as<Value8>(0).b, 6.0f);
}

TEST(KvBuffer, PlaceholdersAreCountedAndSized) {
  KvBuffer buf(8);
  const Value8 v{1, 2};
  buf.append(0, &v);
  buf.append_placeholder();
  buf.append_placeholder();
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.placeholder_count(), 2u);
  EXPECT_EQ(buf.key(1), kPlaceholderKey);
  // Placeholders occupy full pair bytes (they ride the D2H copy).
  EXPECT_EQ(buf.bytes(), 3u * 12);
}

TEST(KvBuffer, AppendBulkMatchesLooping) {
  KvBuffer a(4), b(4);
  const std::vector<std::uint32_t> keys{1, 2, 3, 4};
  const std::vector<float> values{1.5f, 2.5f, 3.5f, 4.5f};
  a.append_bulk(keys, values.data());
  for (size_t i = 0; i < keys.size(); ++i) b.append(keys[i], &values[i]);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.key(i), b.key(i));
    EXPECT_EQ(std::memcmp(a.value(i), b.value(i), 4), 0);
  }
}

TEST(KvBuffer, AdoptsParallelArraysAsIfAppended) {
  const std::vector<std::uint32_t> keys{7, 3, 9};
  const std::vector<float> values{0.5f, 1.5f, 2.5f};
  std::vector<std::byte> bytes(values.size() * sizeof(float));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  const KvBuffer adopted(4, keys, bytes);
  KvBuffer appended(4);
  appended.append_bulk(keys, values.data());
  EXPECT_EQ(adopted.value_size(), 4u);
  EXPECT_TRUE(std::equal(adopted.keys().begin(), adopted.keys().end(),
                         appended.keys().begin(), appended.keys().end()));
  EXPECT_TRUE(std::equal(adopted.values().begin(), adopted.values().end(),
                         appended.values().begin(), appended.values().end()));
  // One value's bytes too few for three keys.
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(KvBuffer(4, keys, bytes), vrmr::CheckError);
}

TEST(KvBuffer, AppendBufferConcatenates) {
  KvBuffer a(4), b(4);
  const float x = 1.0f, y = 2.0f;
  a.append(1, &x);
  b.append(2, &y);
  a.append_buffer(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.key(1), 2u);
  EXPECT_EQ(a.value_as<float>(1), 2.0f);
  // Appending an empty buffer is a no-op regardless of its value size.
  KvBuffer empty(16);
  a.append_buffer(empty);
  EXPECT_EQ(a.size(), 2u);
}

TEST(KvBuffer, AppendBufferRejectsMismatchedValueSize) {
  KvBuffer a(4), b(8);
  const Value8 v{1, 2};
  b.append(0, &v);
  EXPECT_THROW(a.append_buffer(b), vrmr::CheckError);
}

TEST(KvBuffer, ClearAndReserve) {
  KvBuffer buf(4);
  buf.reserve(100);
  const float v = 3.0f;
  buf.append(1, &v);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.bytes(), 0u);
}

TEST(KvBuffer, SpansExposeRawStorage) {
  KvBuffer buf(4);
  const float v1 = 1.0f, v2 = 2.0f;
  buf.append(10, &v1);
  buf.append(11, &v2);
  EXPECT_EQ(buf.keys().size(), 2u);
  EXPECT_EQ(buf.values().size(), 8u);
  EXPECT_EQ(buf.keys()[1], 11u);
}

TEST(KvBuffer, MutableValueAllowsInPlaceEdit) {
  KvBuffer buf(4);
  const float v = 1.0f;
  buf.append(0, &v);
  const float nv = 9.0f;
  std::memcpy(buf.mutable_value(0), &nv, 4);
  EXPECT_EQ(buf.value_as<float>(0), 9.0f);
}

}  // namespace
}  // namespace vrmr::mr
