#include "core/status.h"

#include <gtest/gtest.h>

#include "core/result.h"

namespace saql {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  Status s = Status::ParseError("3:7: bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "3:7: bad token");
  EXPECT_EQ(s.ToString(), "ParseError: 3:7: bad token");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status::Ok());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Status FailingStep() { return Status::IoError("disk on fire"); }

Status UsesReturnIfError() {
  SAQL_RETURN_IF_ERROR(FailingStep());
  return Status::Internal("should not reach");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = UsesReturnIfError();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(*r, 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, OkStatusConvertedToInternalError) {
  Result<int> r{Status::Ok()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> DoubleOf(int x) {
  SAQL_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubleOf(4).value(), 8);
  EXPECT_FALSE(DoubleOf(-4).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 3);
}

}  // namespace
}  // namespace saql
