#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "nn/serialization.h"

namespace lan {
namespace {

// ---------- Matrix / ParamStore round trips ----------

TEST(MatrixIoTest, RoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::XavierUniform(5, 7, &rng);
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrix(m, buffer).ok());
  auto restored = ReadMatrix(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(m, *restored), 0.0f);
}

TEST(MatrixIoTest, EmptyMatrix) {
  Matrix m;
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrix(m, buffer).ok());
  auto restored = ReadMatrix(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rows(), 0);
  EXPECT_EQ(restored->cols(), 0);
}

TEST(MatrixIoTest, RejectsGarbage) {
  std::stringstream buffer("this is not a matrix");
  EXPECT_FALSE(ReadMatrix(buffer).ok());
}

TEST(MatrixIoTest, RejectsTruncation) {
  Rng rng(2);
  Matrix m = Matrix::XavierUniform(4, 4, &rng);
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrix(m, buffer).ok());
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_FALSE(ReadMatrix(truncated).ok());
}

TEST(ParamStoreIoTest, RoundTripPreservesValues) {
  Rng rng(3);
  ParamStore a;
  a.Create(Matrix::XavierUniform(3, 4, &rng));
  a.Create(Matrix::XavierUniform(1, 8, &rng));
  std::stringstream buffer;
  ASSERT_TRUE(WriteParamStore(a, buffer).ok());

  Rng rng2(99);  // different init; must be overwritten by the load
  ParamStore b;
  ParamState* p0 = b.Create(Matrix::XavierUniform(3, 4, &rng2));
  ParamState* p1 = b.Create(Matrix::XavierUniform(1, 8, &rng2));
  ASSERT_TRUE(ReadParamStoreInto(&b, buffer).ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(p0->value, a.params()[0]->value), 0.0f);
  EXPECT_EQ(Matrix::MaxAbsDiff(p1->value, a.params()[1]->value), 0.0f);
}

TEST(ParamStoreIoTest, RejectsArchitectureMismatch) {
  Rng rng(4);
  ParamStore a;
  a.Create(Matrix::XavierUniform(3, 4, &rng));
  std::stringstream buffer;
  ASSERT_TRUE(WriteParamStore(a, buffer).ok());

  ParamStore wrong_count;
  wrong_count.Create(Matrix::XavierUniform(3, 4, &rng));
  wrong_count.Create(Matrix::XavierUniform(3, 4, &rng));
  EXPECT_FALSE(ReadParamStoreInto(&wrong_count, buffer).ok());

  std::stringstream buffer2;
  ASSERT_TRUE(WriteParamStore(a, buffer2).ok());
  ParamStore wrong_shape;
  wrong_shape.Create(Matrix::XavierUniform(4, 3, &rng));
  EXPECT_FALSE(ReadParamStoreInto(&wrong_shape, buffer2).ok());
}

}  // namespace
}  // namespace lan
