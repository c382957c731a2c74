module dmcs/dmcsbench

go 1.21

require dmcs v0.0.0

replace dmcs => ../
